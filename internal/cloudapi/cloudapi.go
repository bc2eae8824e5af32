// Package cloudapi is the federation's transport layer: the seam between
// every OSDC service (Tukey middleware, billing, monitoring, scenarios) and
// the clouds they mediate.
//
// The paper's defining property is that the OSDC is a *federation*: the
// clouds run at different sites behind their own native APIs, and the
// science-cloud services reach them over the network (§5.2, §7). CloudAPI
// captures the operations those services need — tenant-plane provisioning
// (Launch, Terminate, Instances, Images) plus the operator plane the
// billing and monitoring pollers use (usage deltas, quotas, flavors) —
// behind one interface with two backends:
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
	"errors"

	"osdc/internal/iaas"
)

// ErrNotFound reports an instance ID unknown to the cloud.
var ErrNotFound = errors.New("cloudapi: instance not found")

// Instance is the federation-level view of one VM: the fields every native
// dialect can carry. Site-local details (hypervisor host, launch
// timestamps) deliberately do not cross this boundary — the EC2 dialect
// never exposes them, and no mediating service needs them.
type Instance struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	User   string `json:"user"`
	Flavor string `json:"flavor"`
	Image  string `json:"image,omitempty"`
	Status string `json:"status"` // OpenStack-style: BUILD, ACTIVE, ...
}

// Image is the federation-level view of a machine image.
type Image struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Public bool   `json:"public"`
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
	// iaas.ErrQuota / iaas.ErrCapacity through both backends.
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
	// Instance looks one instance up by ID (any state, any owner);
	// ErrNotFound if the cloud has never heard of it.
	Instance(id string) (Instance, error)
	// Images lists the images visible to user, sorted by ID.
	Images(user string) ([]Image, error)
	// Flavors lists offered instance sizes, sorted by cores.
	Flavors() ([]iaas.Flavor, error)
	// SetQuota replaces user's free-tier quota.
	SetQuota(user string, q iaas.Quota) error
	// UsageSince returns the usage churn after revision since: pass a
	// previous delta's Rev and receive only the users whose footprint
	// changed. since == 0 is a fresh caller and yields a Reset
	// snapshot; since < 0 is rejected with an error through both
	// backends.
	UsageSince(since int64) (UsageDelta, error)
}
