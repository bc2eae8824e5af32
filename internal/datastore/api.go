package datastore

import "context"

// API is one site's datasets plane as the console and the replication
// coordinator see it. Two backends exist, mirroring the cloudapi pattern:
//
//   - *Store is the Local backend: the in-process inventory itself, used
//     by the single-process topology and by each cloudapi.Server to serve
//     the wire plane;
//   - *Remote is the HTTP client speaking the /cloudapi/datasets routes of
//     a per-site server.
//
// The parity test in internal/cloudapi holds both to identical observable
// behavior, including error messages.
//
// Implementations must be safe for concurrent use: console handlers and
// coordinator rounds call in at once. A Remote gives up a call when its
// ctx ends; the Local backend never blocks and ignores it.
type API interface {
	// Name is the federation site name (e.g. "OSDC-Adler").
	Name() string
	// Loc is the simnet site hosting the store (e.g. "chicago-kenwood") —
	// what transfer paths are derived from.
	Loc() string
	// Get looks one replica up; errors.Is(err, ErrNoReplica) when absent.
	Get(ctx context.Context, dataset string) (Replica, error)
	// Put installs or replaces a replica, accounting bytes on the site
	// volume. Invalid replicas and full volumes error.
	Put(ctx context.Context, r Replica) error
	// Delete drops a replica; errors.Is(err, ErrNoReplica) when absent.
	Delete(ctx context.Context, dataset string) error
	// ListSince returns everything that changed after revision since: a
	// fresh client passes 0 for a Reset snapshot of every replica, sorted
	// by dataset name, then feeds each response's Rev back and receives
	// only the churn in between. See Delta.
	ListSince(ctx context.Context, since int64) (Delta, error)
}

// Delta is ListSince's result: the store's state relative to a revision
// the caller already holds.
type Delta struct {
	// Rev is the store's current revision — what the caller passes to its
	// next ListSince.
	Rev int64 `json:"rev,omitempty"`
	// Changed holds every replica put after the caller's revision, sorted
	// by dataset name.
	Changed []Replica `json:"changed,omitempty"`
	// Removed holds every dataset deleted after the caller's revision,
	// sorted by name.
	Removed []string `json:"removed,omitempty"`
	// Reset reports that Changed is a full snapshot and anything the
	// caller carried forward must be discarded: returned for since <= 0 (a
	// fresh client) and for since ahead of the store's revision (the store
	// restarted under the client).
	Reset bool `json:"reset,omitempty"`
}

// *Store implements API directly.
var _ API = (*Store)(nil)
