package cloudapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/wire"
)

// Remote is the over-the-wire CloudAPI backend: an HTTP client that reaches
// a per-cloud Server. Tenant operations speak the cloud's *native* dialect
// — OpenStack JSON for "openstack" stacks, EC2 query calls with XML
// responses for "eucalyptus" — exactly the translation work the Tukey
// middleware's proxies did in-process before this layer existed (§5.2);
// operator operations (usage, quotas, the clock) use the Server's JSON
// plane.
//
// Quota and capacity rejections are mapped back onto iaas.ErrQuota /
// iaas.ErrCapacity so callers see the same error classes through both
// backends.
type Remote struct {
	name     string
	stack    string
	endpoint string // base URL, no trailing slash
	client   *http.Client
	secret   string // wire.OperatorHeader on operator-plane calls
}

// DefaultTimeout bounds every round trip of a Remote built with a nil
// client, so a hung site surfaces as an error to every caller instead of
// holding a goroutine forever. The operator pollers cancel their calls
// sooner (PollDeadline).
const DefaultTimeout = 10 * time.Second

// NewRemote builds a client for the cloud name speaking stack ("openstack"
// or "eucalyptus") at endpoint. client may be nil for a private client
// with DefaultTimeout.
func NewRemote(name, stack, endpoint string, client *http.Client) *Remote {
	if stack != "openstack" && stack != "eucalyptus" {
		panic("cloudapi: unsupported stack " + stack)
	}
	return &Remote{name: name, stack: stack, endpoint: strings.TrimRight(endpoint, "/"),
		client: wire.NewClient(client, DefaultTimeout, 0)}
}

// ProbeRemote builds a client for whatever cloud serves endpoint by asking
// its /cloudapi/meta discovery document for the name and stack — how
// tukey-server attaches an externally running cloud-site process it knows
// only by URL. client may be nil for a private client with DefaultTimeout.
// The probe gives up when ctx ends.
func ProbeRemote(ctx context.Context, endpoint string, client *http.Client) (*Remote, error) {
	client = wire.NewClient(client, DefaultTimeout, 0)
	var m meta
	status, _, err := wire.Call(ctx, client, http.MethodGet, strings.TrimRight(endpoint, "/")+"/cloudapi/meta", "", nil, &m, http.StatusOK)
	if status == 0 {
		return nil, fmt.Errorf("cloudapi: probing %s: %w", endpoint, err)
	}
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("cloudapi: %s is not a cloud site (status %d, err %v)", endpoint, status, err)
	}
	if m.Name == "" || (m.Stack != "openstack" && m.Stack != "eucalyptus") {
		return nil, fmt.Errorf("cloudapi: %s reported unusable meta %+v", endpoint, m)
	}
	return NewRemote(m.Name, m.Stack, endpoint, client), nil
}

// SetOperatorSecret makes every operator-plane call (quota updates, clock
// targets) carry the shared secret in wire.OperatorHeader — the client
// half of Server.OperatorSecret.
func (r *Remote) SetOperatorSecret(secret string) { r.secret = secret }

// Name implements CloudAPI.
func (r *Remote) Name() string { return r.name }

// Stack implements CloudAPI.
func (r *Remote) Stack() string { return r.stack }

// refusedCall words a native-dialect answer other than the one wanted:
// the call, the status and the site's message.
func (r *Remote) refusedCall(call string, status int, msg string) error {
	return fmt.Errorf("cloudapi: %s %s (%d): %s", r.name, call, status, msg)
}

// --- the operator plane (JSON, stack-independent) ---

// operator makes one operator-plane round trip through wire.Call.
func (r *Remote) operator(ctx context.Context, method, path string, in, out interface{}, ok int) (status int, msg string, err error) {
	return wire.Call(ctx, r.client, method, r.endpoint+path, r.secret, in, out, ok)
}

// refused words an operator-plane answer other than the one wanted: msg
// verbatim when the caller passes the server's message and there is one,
// else what failed and the status.
func (r *Remote) refused(what string, status int, msg string) error {
	if msg != "" {
		return errors.New(msg)
	}
	return fmt.Errorf("cloudapi: %s %s returned %d", r.name, what, status)
}

// --- CloudAPI ---

// Launch implements CloudAPI via the native dialect.
func (r *Remote) Launch(user, name, flavor, image string) (Instance, error) {
	if err := checkWire(user, name, flavor, image); err != nil {
		return Instance{}, err
	}
	if r.stack == "eucalyptus" {
		return r.ec2Launch(user, name, flavor, image)
	}
	return r.novaLaunch(user, name, flavor, image)
}

// Terminate implements CloudAPI via the native dialect.
func (r *Remote) Terminate(user, id string) error {
	var err error
	if r.stack == "eucalyptus" {
		_, _, _, err = r.ec2("TerminateInstances", user, "InstanceId.1", id)
	} else {
		_, _, err = r.nova(http.MethodDelete, "/v2/servers/"+id, user, "", http.StatusNoContent, nil)
	}
	return err
}

// Stop implements CloudAPI via the native dialect.
func (r *Remote) Stop(user, id string) error {
	var err error
	if r.stack == "eucalyptus" {
		_, _, _, err = r.ec2("StopInstances", user, "InstanceId.1", id)
	} else {
		_, _, err = r.nova(http.MethodPost, "/v2/servers/"+id+"/action", user, novaStop, http.StatusAccepted, nil)
	}
	return err
}

// Instances implements CloudAPI via the native dialect.
func (r *Remote) Instances(user string) ([]Instance, error) {
	if r.stack == "eucalyptus" {
		return r.ec2Instances(user)
	}
	return r.novaInstances(user)
}

// SetQuota implements CloudAPI via the operator plane. A rejection the
// server words (an empty user) surfaces with the Local backend's text.
func (r *Remote) SetQuota(user string, q iaas.Quota) error {
	req := quotaRequest{User: user, MaxInstances: q.MaxInstances, MaxCores: q.MaxCores}
	status, msg, err := r.operator(context.Background(), http.MethodPost, "/cloudapi/quota", req, nil, http.StatusNoContent)
	if err != nil || status == http.StatusNoContent {
		return err
	}
	return r.refused("quota update", status, msg)
}

// Clock reads the site's clock plane: the site engine's current virtual
// time, mode, and (follow mode) newest target.
func (r *Remote) Clock(ctx context.Context) (ClockStatus, error) {
	var st ClockStatus
	status, _, err := r.operator(ctx, http.MethodGet, "/cloudapi/clock", nil, &st, http.StatusOK)
	if err != nil {
		return ClockStatus{}, err
	}
	if status != http.StatusOK {
		return ClockStatus{}, r.refused("clock read", status, "")
	}
	return st, nil
}

// ClockSync publishes a target virtual time on the site's clock plane. A
// free-running site answers 409, surfaced as ErrFreeRunning so a
// coordinator can tell "does not follow" from "unreachable".
func (r *Remote) ClockSync(ctx context.Context, target sim.Time) error {
	status, _, err := r.operator(ctx, http.MethodPost, "/cloudapi/clock", clockSyncRequest{Target: float64(target)}, nil, http.StatusNoContent)
	switch {
	case err != nil || status == http.StatusNoContent:
		return err
	case status == http.StatusConflict:
		return fmt.Errorf("cloudapi: %s: %w", r.name, ErrFreeRunning)
	}
	return r.refused("clock sync", status, "")
}

// UsageSince implements CloudAPI via the operator plane's ?since= form.
// Server-reported rejections (a negative since) surface with the Local
// backend's error text, verbatim.
func (r *Remote) UsageSince(ctx context.Context, since int64) (UsageDelta, error) {
	var d UsageDelta
	status, msg, err := r.operator(ctx, http.MethodGet, fmt.Sprintf("/cloudapi/usage?since=%d", since), nil, &d, http.StatusOK)
	if err != nil {
		return UsageDelta{}, err
	}
	if status != http.StatusOK {
		return UsageDelta{}, r.refused("usage delta", status, msg)
	}
	return d, nil
}
