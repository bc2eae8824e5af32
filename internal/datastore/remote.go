package datastore

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
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
	secret   string // X-OSDC-Operator header on mutating calls, when set
}

// NewRemote builds a client for site name at loc served at endpoint.
// client may be nil for a private client with a 10 s timeout.
func NewRemote(name, loc, endpoint string, client *http.Client) *Remote {
	if client == nil {
		client = &http.Client{Timeout: remoteTimeout}
	}
	return &Remote{name: name, loc: loc, endpoint: strings.TrimRight(endpoint, "/"), client: client}
}

// ProbeRemote builds a client for whatever site serves endpoint by reading
// the datasets plane's self-description — how tukey-server attaches an
// externally running cloud-site's store knowing only its URL. A site not
// serving the plane errors.
func ProbeRemote(endpoint string, client *http.Client) (*Remote, error) {
	if client == nil {
		client = &http.Client{Timeout: remoteTimeout}
	}
	resp, err := client.Get(strings.TrimRight(endpoint, "/") + "/cloudapi/datasets")
	if err != nil {
		return nil, fmt.Errorf("datastore: probing %s: %w", endpoint, err)
	}
	defer resp.Body.Close()
	var list listResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("datastore: %s serves no datasets plane (status %d, err %v)", endpoint, resp.StatusCode, err)
	}
	if list.Site == "" || list.Loc == "" {
		return nil, fmt.Errorf("datastore: %s reported unusable plane description %+v", endpoint, list)
	}
	return NewRemote(list.Site, list.Loc, endpoint, client), nil
}

// SetOperatorSecret makes every mutating call carry the shared operator
// secret (the -operator-secret flag) in the X-OSDC-Operator header.
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

// decodeError extracts the {"error": msg} body, falling back to a status
// description.
func decodeError(resp *http.Response, kind error) error {
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(resp.Body)
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return wireError{msg: body.Error, kind: kind}
	}
	return wireError{msg: fmt.Sprintf("datastore: remote returned %d", resp.StatusCode), kind: kind}
}

func (r *Remote) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, r.endpoint+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.secret != "" {
		req.Header.Set("X-OSDC-Operator", r.secret)
	}
	return r.client.Do(req)
}

// List implements API.
func (r *Remote) List() ([]Replica, error) {
	resp, err := r.do(http.MethodGet, "/cloudapi/datasets", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp, nil)
	}
	var list listResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Replicas, nil
}

// ListSince implements API: the ?since= form of the datasets route. The
// server evaluates the delta against the Local semantics, so both backends
// return identical Deltas for identical stores.
func (r *Remote) ListSince(since int64) (Delta, error) {
	resp, err := r.do(http.MethodGet, fmt.Sprintf("/cloudapi/datasets?since=%d", since), nil)
	if err != nil {
		return Delta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Delta{}, decodeError(resp, nil)
	}
	var d deltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return Delta{}, err
	}
	return d.Delta, nil
}

// Get implements API.
func (r *Remote) Get(dataset string) (Replica, error) {
	resp, err := r.do(http.MethodGet, "/cloudapi/datasets/replica?dataset="+url.QueryEscape(dataset), nil)
	if err != nil {
		return Replica{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Replica{}, decodeError(resp, ErrNoReplica)
	}
	if resp.StatusCode != http.StatusOK {
		return Replica{}, decodeError(resp, nil)
	}
	var rep Replica
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return Replica{}, err
	}
	return rep, nil
}

// Put implements API.
func (r *Remote) Put(rep Replica) error {
	payload, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	resp, err := r.do(http.MethodPost, "/cloudapi/datasets/replica", strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp, nil)
	}
	return nil
}

// Delete implements API.
func (r *Remote) Delete(dataset string) error {
	resp, err := r.do(http.MethodDelete, "/cloudapi/datasets/replica?dataset="+url.QueryEscape(dataset), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusNotFound:
		return decodeError(resp, ErrNoReplica)
	}
	return decodeError(resp, nil)
}

var _ API = (*Remote)(nil)
