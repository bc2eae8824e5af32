// Package cloudapi is the federation's transport layer: the seam between
// every OSDC service (Tukey middleware, billing, monitoring, scenarios) and
// the clouds they mediate.
//
// The paper's defining property is that the OSDC is a *federation*: the
// clouds run at different sites behind their own native APIs, and the
// science-cloud services reach them over the network (§5.2, §7). CloudAPI
// captures the operations those services need — tenant-plane provisioning
// (Launch, Stop, Terminate, Instances) plus the operator plane the billing
// and monitoring pollers use (usage deltas, quotas) — behind one interface
// with two backends:
//
//   - Local wraps an in-process *iaas.Cloud, preserving the single-process
//     deterministic topology every simulation scenario runs in;
//   - Remote is an HTTP client that speaks each cloud's native dialect
//     (OpenStack JSON for "openstack" stacks, EC2 query/XML for
//     "eucalyptus") for the tenant plane, and a small JSON operator API
//     for the rest, against a per-cloud Server.
//
// After this layer, a cloud is an address, not a pointer: tukey-server's
// -remote-clouds mode gives every cloud its own engine, clock driver and
// HTTP listener, and the services federate over the wire exactly as the
// paper deploys them.
package cloudapi

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"unicode/utf8"

	"osdc/internal/iaas"
)

// Instance is the federation-level view of one VM: the fields every native
// dialect can carry. Site-local details (the hypervisor host)
// deliberately do not cross this boundary — the EC2 dialect never exposes
// them, and no mediating service needs them.
type Instance struct {
	ID     string
	Name   string
	Flavor string
	Status string // OpenStack-style: BUILD, ACTIVE, ...
}

// checkWire refuses a launch's user, instance name, flavor or image id
// that one of the native dialects could not hand back unchanged. JSON and
// XML carry only valid UTF-8, and XML 1.0 no control character but tab,
// newline and carriage return, nor U+FFFE or U+FFFF. The OpenStack dialect
// also sends the user as an HTTP header value, which cannot be empty, hold
// a control character or keep surrounding spaces.
func checkWire(user, name, flavor, image string) error {
	if user == "" || !wireText(user, true) || strings.Trim(user, " ") != user {
		return fmt.Errorf("cloudapi: user %q cannot cross the native APIs", user)
	}
	for _, f := range [...]struct{ what, s string }{{"instance name", name}, {"flavor", flavor}, {"image", image}} {
		if !wireText(f.s, false) {
			return fmt.Errorf("cloudapi: %s %q cannot cross the native APIs", f.what, f.s)
		}
	}
	return nil
}

// wireText reports whether s is valid UTF-8 that XML 1.0 can carry; a
// header value may not hold tab, newline, carriage return or DEL either.
func wireText(s string, header bool) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		switch {
		case r == '\t' || r == '\n' || r == '\r' || r == 0x7f:
			if header {
				return false
			}
		case !xmlChar(r):
			return false
		}
	}
	return true
}

// launch is every launch a site takes, in process or over a native
// dialect: what the dialects could not hand back is refused before the
// cloud sees it.
func launch(c *iaas.Cloud, user, name, flavor, image string) (*iaas.Instance, error) {
	if err := checkWire(user, name, flavor, image); err != nil {
		return nil, err
	}
	return c.Launch(user, name, flavor, image)
}

// launchStatus is the status both dialects refuse a launch with: quota
// and capacity rejections keep their own, so a Remote can rebuild their
// iaas classes from it.
func launchStatus(err error) int {
	switch err.(type) {
	case iaas.ErrQuota:
		return http.StatusForbidden
	case iaas.ErrCapacity:
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// launchError classifies a refused launch by its launchStatus. The site
// words a quota rejection as iaas.ErrQuota does, so only its reason is
// kept.
func (r *Remote) launchError(user, flavor string, status int, msg string) error {
	switch status {
	case http.StatusForbidden:
		reason := strings.TrimPrefix(msg, iaas.ErrQuota{User: user}.Error())
		return fmt.Errorf("cloudapi: %s: %w", r.name, iaas.ErrQuota{User: user, Reason: reason})
	case http.StatusConflict:
		return fmt.Errorf("cloudapi: %s: %w", r.name, iaas.ErrCapacity{Flavor: flavor})
	}
	return fmt.Errorf("cloudapi: %s rejected launch (%d): %s", r.name, status, msg)
}

// UserUsage is one user's running footprint on one cloud.
type UserUsage struct {
	Instances int `json:"instances"`
	Cores     int `json:"cores"`
}

// Usage is one cloud's running footprint: per-user footprints plus
// cloud-wide core occupancy (§6.4: "we poll every minute to see the number
// and types of virtual machine a user has provisioned"). It is the body of
// the full GET /cloudapi/usage sample and the snapshot a UsagePoller
// maintains from deltas.
//
// Rev is the cloud's usage revision at (or just before) the moment the
// sample was taken: feed it to UsageSince to receive only the churn after
// this snapshot. Equal revs imply identical samples.
type Usage struct {
	Rev        int64                `json:"rev"`
	ByUser     map[string]UserUsage `json:"by_user"`
	UsedCores  int                  `json:"used_cores"`
	TotalCores int                  `json:"total_cores"`
}

// UsageDelta is UsageSince's result: the cloud's per-user footprints
// relative to a revision the caller already holds, shaped like the
// datasets plane's Delta. Changed carries absolute values, not
// increments, so applying a delta twice is harmless; Removed lists users
// whose last running instance went away in the window, sorted; Reset
// means Changed is the complete population and any carried-forward
// snapshot must be discarded (fresh caller, or the cloud restarted under
// the caller). Core occupancy rides along so a delta poller can maintain
// a full Usage without a second round trip.
type UsageDelta struct {
	Rev        int64                `json:"rev"`
	Changed    map[string]UserUsage `json:"changed,omitempty"`
	Removed    []string             `json:"removed,omitempty"`
	Reset      bool                 `json:"reset,omitempty"`
	UsedCores  int                  `json:"used_cores"`
	TotalCores int                  `json:"total_cores"`
}

// CloudAPI is one attached cloud as the federation services see it.
//
// Implementations must be safe for concurrent use: Tukey HTTP handlers,
// billing pollers and monitoring sweeps all call in at once.
type CloudAPI interface {
	// Name is the federation-wide cloud name (e.g. "OSDC-Adler").
	Name() string
	// Stack is the native API dialect: "openstack" or "eucalyptus".
	Stack() string

	// Launch provisions a VM for user. flavor is the cloud's native flavor
	// name (dialect translation happens in the Tukey middleware, per its
	// configuration files). Quota and capacity rejections surface as
	// iaas.ErrQuota / iaas.ErrCapacity through both backends, and a user,
	// name, flavor or image the native dialects could not hand back
	// unchanged is refused by both alike (see checkWire).
	Launch(user, name, flavor, image string) (Instance, error)
	// Terminate releases user's instance id.
	Terminate(user, id string) error
	// Stop shuts user's instance id down (it reaches SHUTOFF after the
	// cloud's stop delay and stops accruing usage, keeping its
	// allocation). Maps to OpenStack's os-stop action and EC2's
	// StopInstances.
	Stop(user, id string) error
	// Instances lists user's non-terminated instances, sorted by ID.
	Instances(user string) ([]Instance, error)
	// SetQuota replaces user's free-tier quota.
	SetQuota(user string, q iaas.Quota) error
	// UsageSince returns the usage churn after revision since: pass a
	// previous delta's Rev and receive only the users whose footprint
	// changed. since == 0 is a fresh caller and yields a Reset
	// snapshot; since < 0 is rejected with an error through both
	// backends. A Remote gives up when ctx ends.
	UsageSince(ctx context.Context, since int64) (UsageDelta, error)
}
