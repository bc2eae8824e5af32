package datastore

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"osdc/internal/wire"
)

// remoteTimeout bounds every round trip of a Remote built with a nil
// client, for the same reason cloudapi.DefaultTimeout exists: the
// replication coordinator lists every site each round, and one hung site
// must surface as a counted error, not a frozen coordinator.
const remoteTimeout = 10 * time.Second

// Remote is the over-the-wire API backend: an HTTP client speaking the
// /cloudapi/datasets routes of a per-site cloudapi.Server. Errors the
// server reports are reproduced with the Local backend's exact message
// (and ErrNoReplica class where it applies), so both backends are
// observably identical.
type Remote struct {
	name     string
	loc      string
	endpoint string // base URL, no trailing slash
	client   *http.Client
	secret   string // wire.OperatorHeader on every call, when set
}

// NewRemote builds a client for site name at loc served at endpoint.
// client may be nil for a private client with a 10 s timeout.
func NewRemote(name, loc, endpoint string, client *http.Client) *Remote {
	return &Remote{name: name, loc: loc, endpoint: strings.TrimRight(endpoint, "/"),
		client: wire.NewClient(client, remoteTimeout, 0)}
}

// ProbeRemote builds a client for whatever site serves endpoint by reading
// the datasets plane's self-description — how tukey-server attaches an
// externally running cloud-site's store knowing only its URL. A site not
// serving the plane errors.
func ProbeRemote(endpoint string, client *http.Client) (*Remote, error) {
	client = wire.NewClient(client, remoteTimeout, 0)
	var list listResponse
	status, _, err := wire.Call(context.Background(), client, http.MethodGet, strings.TrimRight(endpoint, "/")+"/cloudapi/datasets", "", nil, &list, http.StatusOK)
	if status == 0 {
		return nil, fmt.Errorf("datastore: probing %s: %w", endpoint, err)
	}
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("datastore: %s serves no datasets plane (status %d, err %v)", endpoint, status, err)
	}
	if list.Site == "" || list.Loc == "" {
		return nil, fmt.Errorf("datastore: %s reported unusable plane description %+v", endpoint, list)
	}
	return NewRemote(list.Site, list.Loc, endpoint, client), nil
}

// SetOperatorSecret makes every call carry the shared operator secret (the
// -operator-secret flag) in wire.OperatorHeader.
func (r *Remote) SetOperatorSecret(secret string) { r.secret = secret }

// Name implements API.
func (r *Remote) Name() string { return r.name }

// Loc implements API.
func (r *Remote) Loc() string { return r.loc }

// wireError carries a server-reported message verbatim while preserving
// the error class the Local backend would have returned.
type wireError struct {
	msg  string
	kind error
}

func (e wireError) Error() string { return e.msg }
func (e wireError) Unwrap() error { return e.kind }

// call makes one round trip through wire.Call. Any status but ok comes
// back as the server's message (or, when it sent none, the status) in a
// wireError; with miss set, a 404 keeps the ErrNoReplica class.
func (r *Remote) call(ctx context.Context, method, path string, in, out interface{}, ok int, miss bool) error {
	status, msg, err := wire.Call(ctx, r.client, method, r.endpoint+path, r.secret, in, out, ok)
	if err != nil || status == ok {
		return err
	}
	if msg == "" {
		msg = fmt.Sprintf("datastore: remote returned %d", status)
	}
	var kind error
	if miss && status == http.StatusNotFound {
		kind = ErrNoReplica
	}
	return wireError{msg: msg, kind: kind}
}

// ListSince implements API: the ?since= form of the datasets route. The
// server evaluates the delta against the Local semantics, so both backends
// return identical Deltas for identical stores.
func (r *Remote) ListSince(ctx context.Context, since int64) (Delta, error) {
	var d deltaResponse
	if err := r.call(ctx, http.MethodGet, fmt.Sprintf("/cloudapi/datasets?since=%d", since), nil, &d, http.StatusOK, false); err != nil {
		return Delta{}, err
	}
	return d.Delta, nil
}

// Get implements API.
func (r *Remote) Get(ctx context.Context, dataset string) (Replica, error) {
	var rep Replica
	if err := r.call(ctx, http.MethodGet, "/cloudapi/datasets/replica?dataset="+url.QueryEscape(dataset), nil, &rep, http.StatusOK, true); err != nil {
		return Replica{}, err
	}
	return rep, nil
}

// Put implements API.
func (r *Remote) Put(ctx context.Context, rep Replica) error {
	return r.call(ctx, http.MethodPost, "/cloudapi/datasets/replica", rep, nil, http.StatusNoContent, false)
}

// Delete implements API.
func (r *Remote) Delete(ctx context.Context, dataset string) error {
	return r.call(ctx, http.MethodDelete, "/cloudapi/datasets/replica?dataset="+url.QueryEscape(dataset), nil, nil, http.StatusNoContent, true)
}

var _ API = (*Remote)(nil)
