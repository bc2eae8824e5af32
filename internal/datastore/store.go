// Package datastore is the federation's data plane: per-site dataset
// replica stores, the /cloudapi/datasets wire protocol that exposes them,
// and the replication coordinator that moves bytes between sites over the
// simulated WAN.
//
// The paper's defining claim is that the OSDC is a *data* cloud (§1, §4,
// §6.3): curated public datasets live at multiple sites and move over the
// wide area with UDT-class protocols. After the compute federation (the
// cloudapi transport and clock planes), this package federates the data:
//
//   - Store is one site's replica inventory, with bytes accounted on that
//     site's dfs.Volume and checksum/version metadata per replica;
//   - API is the plane the console sees, with Local (in-process) and
//     Remote (HTTP against a cloudapi.Server's /cloudapi/datasets routes)
//     backends held to identical observable behavior by a parity test;
//   - Coordinator plans placements against a target replication factor,
//     executes transfers as contending UDT flows (transport.SimulateShared
//     over the simnet topology), verifies checksums on arrival, and
//     repairs under-replication when a site is detached.
package datastore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"osdc/internal/dfs"
)

// ErrNoReplica reports a dataset the store holds no replica of.
var ErrNoReplica = errors.New("datastore: no replica")

// Replica is one site's copy of a dataset: the wire form of the datasets
// plane. Checksum is the content fingerprint the coordinator verifies on
// arrival (Fingerprint of the dataset name and version for healthy
// copies); Version lets a re-published dataset displace stale replicas.
type Replica struct {
	Dataset   string `json:"dataset"`
	SizeBytes int64  `json:"size_bytes"`
	Checksum  string `json:"checksum"`
	Version   int    `json:"version"`
}

// Fingerprint is the canonical content checksum of a dataset version.
// Every healthy replica of (name, version) carries it; a transfer that
// arrives with anything else failed verification.
func Fingerprint(dataset string, version int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s@v%d", dataset, version)))
	return hex.EncodeToString(sum[:16])
}

// Store is one site's dataset inventory. Replica bytes are accounted on
// the site's dfs.Volume (size-only entries — the petabyte-scale accounting
// form), so a full volume rejects new replicas the way a full GlusterFS
// share would.
//
// Store is safe for concurrent use: console handlers, the replication
// coordinator and the wire plane all call in at once.
type Store struct {
	name string // federation site name, e.g. "OSDC-Adler"
	loc  string // simnet site hosting the store, e.g. "chicago-kenwood"
	vol  *dfs.Volume

	mu       sync.RWMutex
	replicas map[string]Replica
	// rev bumps on every Put/Adopt/Delete; revs and graves remember the
	// revision each dataset last changed or died at, which is what
	// ListSince serves deltas from.
	rev    int64
	revs   map[string]int64
	graves map[string]int64
}

// NewStore builds a store for the named federation site, located at the
// simnet site loc, accounting bytes on vol.
func NewStore(name, loc string, vol *dfs.Volume) *Store {
	return &Store{name: name, loc: loc, vol: vol,
		replicas: make(map[string]Replica),
		revs:     make(map[string]int64),
		graves:   make(map[string]int64),
	}
}

// Name returns the federation site name.
func (s *Store) Name() string { return s.name }

// Loc returns the simnet site hosting the store — what the coordinator
// derives transfer paths from.
func (s *Store) Loc() string { return s.loc }

// path is the on-volume location of a replica.
func replicaPath(dataset string) string {
	return "/datastore/" + strings.ToLower(strings.ReplaceAll(dataset, " ", "-"))
}

// validate rejects replicas no backend should accept, keeping Local and
// Remote observably identical.
func validate(r Replica) error {
	if r.Dataset == "" || r.SizeBytes <= 0 {
		return fmt.Errorf("datastore: replica needs a dataset name and positive size")
	}
	if r.Version < 1 {
		return fmt.Errorf("datastore: replica of %s needs a version >= 1", r.Dataset)
	}
	return nil
}

// Put installs (or replaces) a replica, accounting its bytes on the
// volume. Replacing a replica releases the old bytes first.
func (s *Store) Put(_ context.Context, r Replica) error {
	if err := validate(r); err != nil {
		return err
	}
	if r.Checksum == "" {
		r.Checksum = Fingerprint(r.Dataset, r.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.vol.WriteMeta(replicaPath(r.Dataset), r.SizeBytes); err != nil {
		return fmt.Errorf("datastore: %s storing %s: %w", s.name, r.Dataset, err)
	}
	s.replicas[r.Dataset] = r
	s.bumpLocked(r.Dataset)
	return nil
}

// bumpLocked records a live change to dataset under s.mu.
func (s *Store) bumpLocked(dataset string) {
	s.rev++
	s.revs[dataset] = s.rev
	delete(s.graves, dataset)
}

// Adopt registers a replica whose bytes already live on this site's volume
// (e.g. the catalog's master copies on OSDC-Root, written when they were
// published). No volume write happens; everything else behaves like Put.
func (s *Store) Adopt(r Replica) error {
	if err := validate(r); err != nil {
		return err
	}
	if r.Checksum == "" {
		r.Checksum = Fingerprint(r.Dataset, r.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas[r.Dataset] = r
	s.bumpLocked(r.Dataset)
	return nil
}

// Get looks one replica up; ErrNoReplica if the store holds none.
func (s *Store) Get(_ context.Context, dataset string) (Replica, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.replicas[dataset]
	if !ok {
		return Replica{}, fmt.Errorf("datastore: %s: %q: %w", s.name, dataset, ErrNoReplica)
	}
	return r, nil
}

// Delete drops a replica and releases its bytes. ErrNoReplica if absent.
func (s *Store) Delete(_ context.Context, dataset string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.replicas[dataset]; !ok {
		return fmt.Errorf("datastore: %s: %q: %w", s.name, dataset, ErrNoReplica)
	}
	// A replica adopted rather than put may not live at the datastore
	// path; volume misses are fine, the inventory entry still goes.
	_ = s.vol.Delete(replicaPath(dataset))
	delete(s.replicas, dataset)
	s.rev++
	s.graves[dataset] = s.rev
	delete(s.revs, dataset)
	return nil
}

// ListSince returns everything that changed after revision since. A fresh
// client passes 0 and gets a Reset snapshot; afterwards it passes the Rev
// from each response and receives only the replicas put and the datasets
// deleted in between — the coordinator's per-round observation shrinks
// from O(inventory) to O(churn). A since ahead of the store's revision
// (the store restarted, or the client followed a different store) also
// resets.
func (s *Store) ListSince(_ context.Context, since int64) (Delta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := Delta{Rev: s.rev}
	if since <= 0 || since > s.rev {
		d.Reset = true
		for _, r := range s.replicas {
			d.Changed = append(d.Changed, r)
		}
		sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Dataset < d.Changed[j].Dataset })
		return d, nil
	}
	for ds, rev := range s.revs {
		if rev > since {
			d.Changed = append(d.Changed, s.replicas[ds])
		}
	}
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Dataset < d.Changed[j].Dataset })
	for ds, rev := range s.graves {
		if rev > since {
			d.Removed = append(d.Removed, ds)
		}
	}
	sort.Strings(d.Removed)
	return d, nil
}
