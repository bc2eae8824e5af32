// Package iaas implements the OSDC's infrastructure-as-a-service compute
// substrate (paper §3.2, §7): the Eucalyptus- and OpenStack-based utility
// clouds (OSDC-Adler, OSDC-Sullivan) that Tukey provisions VMs on.
//
// It is the cloud model only — hosts, flavors, images, instances, a
// capacity scheduler, per-user quotas and usage counters — and speaks no
// HTTP. A cloud's Stack names the native API its site serves it through:
// internal/cloudapi holds both dialects, the OpenStack JSON one and the
// Eucalyptus/EC2 query/XML one, so the Tukey middleware has real
// translation work to do, as the paper describes: "The translation
// proxies take in requests based on the OpenStack API and then issue
// commands to each cloud based on mappings outlined in configuration
// files" (§5.2).
package iaas

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"osdc/internal/sim"
)

// Flavor is an instance size, as in OpenStack flavors / EC2 instance types.
type Flavor struct {
	Name   string
	VCPUs  int
	RAMMB  int
	DiskGB int
}

// DefaultFlavors are the sizes offered across OSDC clouds.
func DefaultFlavors() []Flavor {
	return []Flavor{
		{Name: "m1.small", VCPUs: 1, RAMMB: 2048, DiskGB: 20},
		{Name: "m1.medium", VCPUs: 2, RAMMB: 4096, DiskGB: 40},
		{Name: "m1.large", VCPUs: 4, RAMMB: 8192, DiskGB: 80},
		{Name: "m1.xlarge", VCPUs: 8, RAMMB: 16384, DiskGB: 160},
	}
}

// Image is a bootable machine image. The OSDC curates images that "contain
// the software tools and applications commonly used by a community" (§3.2).
type Image struct {
	ID     string // assigned by RegisterImage
	Name   string
	Tools  []string // preinstalled community pipelines
	Public bool
}

// InstanceState is the VM lifecycle state.
type InstanceState string

// Lifecycle states (OpenStack naming).
const (
	StateBuild      InstanceState = "BUILD"
	StateActive     InstanceState = "ACTIVE"
	StateShutoff    InstanceState = "SHUTOFF"
	StateTerminated InstanceState = "TERMINATED"
	StateError      InstanceState = "ERROR"
)

// Instance is one virtual machine.
type Instance struct {
	ID      string
	Name    string
	User    string
	Flavor  Flavor
	ImageID string
	Host    string
	State   InstanceState

	// Timer plumbing, all homed on the shard that owns ID. boot and stop
	// are per-schedule handles: cancelling one locks the engine the event
	// was scheduled on (Handle carries its engine), so a cross-shard Stop
	// or Terminate always cancels on the owning shard, never the anchor.
	// hb is the pooled usage-heartbeat timer; it is owned by the shard's
	// event goroutine and is never cancelled from API goroutines — a beat
	// that finds the instance no longer running simply does not re-arm.
	boot        sim.Handle
	stop        sim.Handle
	hb          *sim.Timer
	stopPending bool
}

// Host is one hypervisor server. The paper's rack unit: 8 cores, 8 TB disk
// per server (§9.1 footnote).
type Host struct {
	Name      string
	Cores     int
	RAMMB     int
	DiskGB    int
	usedCores int
	usedRAM   int
	usedDisk  int
	instances map[string]*Instance
}

// NewHost creates an empty hypervisor.
func NewHost(name string, cores, ramMB, diskGB int) *Host {
	return &Host{Name: name, Cores: cores, RAMMB: ramMB, DiskGB: diskGB,
		instances: make(map[string]*Instance)}
}

// PaperHost returns the paper's standard server: 8 cores, 8 TB disk.
func PaperHost(name string) *Host { return NewHost(name, 8, 49152, 8192) }

func (h *Host) fits(f Flavor) bool {
	return h.usedCores+f.VCPUs <= h.Cores &&
		h.usedRAM+f.RAMMB <= h.RAMMB &&
		h.usedDisk+f.DiskGB <= h.DiskGB
}

// FreeCores returns unallocated cores.
func (h *Host) FreeCores() int { return h.Cores - h.usedCores }

// Quota bounds one user's concurrent footprint. The paper's free tier gives
// "small amounts of computing infrastructure ... without cost" (§1).
type Quota struct {
	MaxInstances int
	MaxCores     int
}

// FreeTierQuota is the default allocation for any researcher.
func FreeTierQuota() Quota { return Quota{MaxInstances: 2, MaxCores: 4} }

// userAccount is one user's shard-local accounting: the running footprint
// (instances and cores over this bucket's BUILD/ACTIVE records), the
// bucket-local live instance index (every record of the user's that has
// not been terminated — Terminate unlinks it), and the usage revision of
// the user's last footprint change in this bucket. Counters are maintained
// incrementally at state transitions under the bucket lock, so a usage
// sample merges K small per-user maps instead of walking every instance
// record, and Instances(user) touches only the user's live records however
// many VMs they have launched and terminated before. An account whose
// footprint has returned to zero is retained as a grave — its rev is what
// lets UsageSince report the user as removed.
type userAccount struct {
	n     int
	cores int
	rev   int64
	inst  map[string]*Instance
}

// instShard is one shard-local instance bucket. Every per-instance hot
// path — boot completion, usage heartbeats, stop completion, state reads
// from API handlers — goes through the bucket's own mutex, so callbacks
// firing concurrently on K shard goroutines never serialize on the cloud
// lock, and samplers (biller, usage monitor) walk K short critical
// sections instead of one global locked list.
type instShard struct {
	mu   sync.Mutex
	inst map[string]*Instance
	// users holds this bucket's per-user accounts: incremental footprint
	// counters plus the instance index, written only under mu.
	users map[string]*userAccount
	// beats counts usage heartbeats fired by this shard's instances. It is
	// written only under mu by callbacks homed on this shard's engine and
	// summed in shard order by Heartbeats().
	beats uint64
}

// account returns user's bucket-local account, creating it. Callers hold
// sh.mu.
func (sh *instShard) account(user string) *userAccount {
	a, ok := sh.users[user]
	if !ok {
		a = &userAccount{inst: make(map[string]*Instance)}
		sh.users[user] = a
	}
	return a
}

// topology pins the instance population's shard fan-out: the ShardSet
// keying instance IDs to engines (nil = unsharded) and the matching
// per-shard buckets. SetShards replaces it wholesale during setup; all
// traffic-time readers load it lock-free through the atomic pointer.
type topology struct {
	set *sim.ShardSet
	sh  []*instShard
}

func (t *topology) index(id string) int {
	if t.set == nil {
		return 0
	}
	return t.set.ShardIndex(id)
}

func (t *topology) bucket(id string) *instShard { return t.sh[t.index(id)] }

func newInstShard() *instShard {
	return &instShard{
		inst:  make(map[string]*Instance),
		users: make(map[string]*userAccount),
	}
}

// footprint is one user's running allocation (ACTIVE + BUILD instances),
// maintained incrementally so Launch's quota check is O(1) instead of a
// walk over the whole population.
type footprint struct {
	n     int
	cores int
}

// Cloud is one compute cloud (e.g. OSDC-Adler or OSDC-Sullivan).
//
// mu covers the control plane: host allocations, quotas, images, the ID
// counter, per-user footprints and the launch/reject counters. Instance
// records live in per-shard buckets guarded by their own mutexes (see
// instShard); the lock order is c.mu → instShard.mu → engine internals,
// and timer callbacks take at most the bucket lock (stop completion also
// takes c.mu first, in that order, to return the user's footprint).
// Hosts and flavors are attached before traffic starts and their identity
// is read-only after that. API handlers call the exported methods from
// concurrent goroutines while boot/heartbeat/stop timers fire on the
// owning shard's clock goroutine.
type Cloud struct {
	Name    string
	Stack   string // "openstack" or "eucalyptus" — selects the native API
	Site    string
	mu      sync.Mutex
	engine  *sim.Engine
	topo    atomic.Pointer[topology]
	hosts   []*Host
	flavors map[string]Flavor
	images  map[string]*Image
	quotas  map[string]Quota
	foot    map[string]footprint
	nextID  int
	// hbEvery > 0 arms a usage heartbeat on every launched instance,
	// firing on the instance's owning shard. Set during setup.
	hbEvery sim.Duration

	// usageRev is the cloud's monotonic usage revision: bumped on every
	// change a usage sample could observe (a footprint transition, or a
	// terminate releasing host occupancy). The bump and the matching
	// per-user account write happen under the owning bucket's lock, so a
	// reader that loads the counter and then walks the buckets sees every
	// change at or below the value it read — the invariant UsageSince
	// depends on.
	usageRev atomic.Int64
}

// NewCloud creates a cloud on an engine with the default flavors.
func NewCloud(e *sim.Engine, name, stack, site string) *Cloud {
	c := &Cloud{
		Name: name, Stack: stack, Site: site, engine: e,
		flavors: make(map[string]Flavor),
		images:  make(map[string]*Image),
		quotas:  make(map[string]Quota),
		foot:    make(map[string]footprint),
	}
	c.topo.Store(&topology{sh: []*instShard{newInstShard()}})
	for _, f := range DefaultFlavors() {
		c.flavors[f.Name] = f
	}
	return c
}

// SetShards homes the instance population on the shard set: instance
// records bucket by sim.ShardIndex(instanceID) and every per-instance
// timer (boot, heartbeat, stop) fires on the owning shard instead of the
// cloud's base engine — the sharded-kernel wiring. The set's anchor must
// be the cloud's engine, so a K=1 set reproduces the unsharded behavior
// exactly. Call during setup, before traffic starts; instances launched
// before the call are re-bucketed, but their already-scheduled timers
// stay on the engine that scheduled them (their handles cancel there
// regardless).
func (c *Cloud) SetShards(set *sim.ShardSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := 1
	if set != nil {
		k = set.K()
	}
	next := &topology{set: set, sh: make([]*instShard, k)}
	for i := range next.sh {
		next.sh[i] = newInstShard()
	}
	prev := c.topo.Load()
	for _, sh := range prev.sh {
		sh.mu.Lock()
		for id, inst := range sh.inst {
			nsh := next.bucket(id)
			nsh.inst[id] = inst
			// Rebuild the user accounts in the new buckets: the index
			// follows the live record (tombstones stay reachable by ID
			// only), the footprint is recomputed from state.
			if inst.State == StateTerminated {
				continue
			}
			a := nsh.account(inst.User)
			a.inst[id] = inst
			if inst.State == StateBuild || inst.State == StateActive {
				a.n++
				a.cores += inst.Flavor.VCPUs
			}
		}
		// Carry each user's last-change revision (graves included) so a
		// delta client holding a pre-rebucket rev still sees the churn.
		for user, a := range sh.users {
			na := next.sh[0].account(user)
			if a.rev > na.rev {
				na.rev = a.rev
			}
		}
		next.sh[0].beats += sh.beats
		sh.mu.Unlock()
	}
	c.topo.Store(next)
}

// SetHeartbeat arms a usage heartbeat every `every` simulated seconds on
// each subsequently launched instance. Beats fire on the instance's
// owning shard, re-arm themselves while the instance is BUILD/ACTIVE, and
// drain (do not re-arm) once it stops or terminates. 0 disables (the
// default). Call during setup.
func (c *Cloud) SetHeartbeat(every sim.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hbEvery = every
}

// Heartbeats returns the total usage heartbeats fired, summed in shard
// order.
func (c *Cloud) Heartbeats() uint64 {
	t := c.topo.Load()
	var total uint64
	for _, sh := range t.sh {
		sh.mu.Lock()
		total += sh.beats
		sh.mu.Unlock()
	}
	return total
}

// ShardPopulation returns the live (non-terminated) instance count per
// shard bucket — the observability hook the sharded stress tests assert
// on.
func (c *Cloud) ShardPopulation() []int {
	t := c.topo.Load()
	out := make([]int, len(t.sh))
	for i, sh := range t.sh {
		sh.mu.Lock()
		for _, inst := range sh.inst {
			if inst.State != StateTerminated {
				out[i]++
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// timerEngine returns the engine that owns key's timers.
func (c *Cloud) timerEngine(key string) *sim.Engine {
	t := c.topo.Load()
	if t.set != nil {
		return t.set.Shard(key)
	}
	return c.engine
}

// AddHost attaches a hypervisor.
func (c *Cloud) AddHost(h *Host) { c.hosts = append(c.hosts, h) }

// AddRack attaches n paper-standard hosts named prefix-NN.
func (c *Cloud) AddRack(prefix string, n int) {
	for i := 0; i < n; i++ {
		c.AddHost(PaperHost(fmt.Sprintf("%s-%02d", prefix, i)))
	}
}

// TotalCores sums hypervisor cores.
func (c *Cloud) TotalCores() int {
	total := 0
	for _, h := range c.hosts {
		total += h.Cores
	}
	return total
}

// UsedCores sums allocated cores.
func (c *Cloud) UsedCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, h := range c.hosts {
		total += h.usedCores
	}
	return total
}

// RegisterImage adds a machine image under a fresh ID.
func (c *Cloud) RegisterImage(img Image) *Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := img
	c.nextID++
	cp.ID = fmt.Sprintf("img-%s-%d", c.Name, c.nextID)
	c.images[cp.ID] = &cp
	return &cp
}

// Images lists the public images, sorted by ID. Images are immutable once
// registered, so the pointers are safe to share.
func (c *Cloud) Images() []*Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Image
	for _, img := range c.images {
		if img.Public {
			out = append(out, img)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetQuota assigns a user quota (replacing the free-tier default).
func (c *Cloud) SetQuota(user string, q Quota) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quotas[user] = q
}

func (c *Cloud) quotaFor(user string) Quota {
	if q, ok := c.quotas[user]; ok {
		return q
	}
	return FreeTierQuota()
}

// Flavors lists flavors sorted by cores.
func (c *Cloud) Flavors() []Flavor {
	var out []Flavor
	for _, f := range c.flavors {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VCPUs < out[j].VCPUs })
	return out
}

// ErrQuota reports a quota rejection.
type ErrQuota struct{ User, Reason string }

func (e ErrQuota) Error() string { return fmt.Sprintf("iaas: quota: %s: %s", e.User, e.Reason) }

// ErrCapacity reports that no host fits the flavor.
type ErrCapacity struct{ Flavor string }

func (e ErrCapacity) Error() string { return "iaas: no capacity for flavor " + e.Flavor }

// stopDelay is how long an instance takes to shut down cleanly once Stop
// is accepted, in simulated seconds.
const stopDelay sim.Duration = 5

// footDec returns cores/instance slots to the user's running footprint.
// Callers hold c.mu.
func (c *Cloud) footDec(user string, cores int) {
	f := c.foot[user]
	f.n--
	f.cores -= cores
	c.foot[user] = f
}

// Launch provisions an instance for user. Scheduling is most-free-cores
// first (spreads load like nova's filter scheduler with defaults).
func (c *Cloud) Launch(user, name, flavorName, imageID string) (*Instance, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flavors[flavorName]
	if !ok {
		return nil, fmt.Errorf("iaas: unknown flavor %q", flavorName)
	}
	if imageID != "" {
		img, ok := c.images[imageID]
		if !ok {
			return nil, fmt.Errorf("iaas: unknown image %q", imageID)
		}
		if !img.Public {
			return nil, fmt.Errorf("iaas: image %q not accessible to %s", imageID, user)
		}
	}
	// Quota check against the user's running footprint — an O(1) counter
	// read, not a walk over the population (at 10⁵ instances the walk was
	// the launch path's whole cost).
	q := c.quotaFor(user)
	ft := c.foot[user]
	if ft.n+1 > q.MaxInstances {
		return nil, ErrQuota{User: user, Reason: "instance limit"}
	}
	if ft.cores+f.VCPUs > q.MaxCores {
		return nil, ErrQuota{User: user, Reason: "core limit"}
	}
	// Schedule: host with the most free cores that fits.
	var best *Host
	for _, h := range c.hosts {
		if !h.fits(f) {
			continue
		}
		if best == nil || h.FreeCores() > best.FreeCores() {
			best = h
		}
	}
	if best == nil {
		return nil, ErrCapacity{Flavor: flavorName}
	}
	best.usedCores += f.VCPUs
	best.usedRAM += f.RAMMB
	best.usedDisk += f.DiskGB
	ft.n++
	ft.cores += f.VCPUs
	c.foot[user] = ft
	c.nextID++
	inst := &Instance{
		ID: fmt.Sprintf("%s-inst-%d", c.Name, c.nextID), Name: name,
		User: user, Flavor: f, ImageID: imageID, Host: best.Name,
		State: StateBuild,
	}
	best.instances[inst.ID] = inst
	topo := c.topo.Load()
	sh := topo.bucket(inst.ID)
	eng := c.engine
	if topo.set != nil {
		eng = topo.set.Shard(inst.ID)
	}
	sh.mu.Lock()
	sh.inst[inst.ID] = inst
	acct := sh.account(user)
	acct.inst[inst.ID] = inst
	acct.n++
	acct.cores += f.VCPUs
	acct.rev = c.usageRev.Add(1)
	// VMs take ~90 s to boot. The callback fires on the owning shard's
	// clock goroutine and takes only the bucket lock — never c.mu — so K
	// shards complete boots concurrently. Scheduling while we hold locks
	// is fine because the engine never fires events under its own lock
	// (Cloud→bucket→Engine is the only lock order between them). The
	// handle is retained so Stop/Terminate cancel the boot on the engine
	// that owns it.
	inst.boot = eng.After(90, func() {
		sh.mu.Lock()
		if inst.State == StateBuild {
			inst.State = StateActive
		}
		sh.mu.Unlock()
	})
	if every := c.hbEvery; every > 0 {
		// The usage heartbeat: a pooled timer owned by the shard's event
		// goroutine. Each beat checks liveness under the bucket lock and
		// re-arms itself; once the instance stops or terminates the next
		// beat drains without re-arming, so API goroutines never touch
		// the timer (sim.Timer is deliberately single-owner).
		inst.hb = sim.NewTimer(eng, func() {
			sh.mu.Lock()
			if inst.State == StateBuild || inst.State == StateActive {
				sh.beats++
				inst.hb.Reset(every)
			}
			sh.mu.Unlock()
		})
		inst.hb.Reset(every)
	}
	cp := *inst
	sh.mu.Unlock()
	return &cp, nil
}

// Stop shuts an instance down (OpenStack os-stop / EC2 StopInstances):
// after stopDelay it reaches SHUTOFF, keeps its host allocation, and
// stops accruing usage. Stopping a BUILD instance cancels its pending
// boot. Both cancellations and the shutdown timer resolve the shard that
// owns the instance ID — the handles carry their engine — so a Stop
// issued from any goroutine against any shard's instance cancels on the
// owning engine, never the anchor.
func (c *Cloud) Stop(user, id string) error {
	sh := c.topo.Load().bucket(id)
	eng := c.timerEngine(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	inst, ok := sh.inst[id]
	if !ok {
		return fmt.Errorf("iaas: no instance %q", id)
	}
	if inst.User != user {
		return fmt.Errorf("iaas: instance %q not owned by %s", id, user)
	}
	switch {
	case inst.State == StateTerminated:
		return fmt.Errorf("iaas: instance %q is terminated", id)
	case inst.State == StateShutoff || inst.stopPending:
		return nil // already stopped or stopping
	}
	inst.boot.Cancel()
	inst.stopPending = true
	inst.stop = eng.After(stopDelay, func() {
		// Shutdown completion: the footprint refund needs c.mu, taken
		// before the bucket lock to respect the lock order.
		c.mu.Lock()
		sh.mu.Lock()
		if inst.State == StateActive || inst.State == StateBuild {
			inst.State = StateShutoff
			c.footDec(inst.User, inst.Flavor.VCPUs)
			a := sh.account(inst.User)
			a.n--
			a.cores -= inst.Flavor.VCPUs
			a.rev = c.usageRev.Add(1)
		}
		inst.stopPending = false
		sh.mu.Unlock()
		c.mu.Unlock()
	})
	return nil
}

// Terminate releases an instance's resources, cancelling any pending
// boot or stop timer on the shard that owns them.
func (c *Cloud) Terminate(user, id string) error {
	sh := c.topo.Load().bucket(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	sh.mu.Lock()
	inst, ok := sh.inst[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("iaas: no instance %q", id)
	}
	if inst.User != user {
		sh.mu.Unlock()
		return fmt.Errorf("iaas: instance %q not owned by %s", id, user)
	}
	if inst.State == StateTerminated {
		sh.mu.Unlock()
		return nil
	}
	wasRunning := inst.State == StateActive || inst.State == StateBuild
	inst.boot.Cancel()
	inst.stop.Cancel()
	inst.stopPending = false
	inst.State = StateTerminated
	// The cloud's usage rev always moves on terminate: even for a SHUTOFF
	// instance (no running-footprint change) the host occupancy a Usage
	// sample reports just changed, so cached same-rev snapshots must not
	// be served. The user's account rev moves only when the running
	// footprint itself changed. Either way the record leaves the user's
	// live index; the tombstone stays in sh.inst, so a second Terminate
	// is a no-op.
	rev := c.usageRev.Add(1)
	a := sh.account(inst.User)
	delete(a.inst, id)
	if wasRunning {
		a.n--
		a.cores -= inst.Flavor.VCPUs
		a.rev = rev
	}
	sh.mu.Unlock()
	for _, h := range c.hosts {
		if h.Name == inst.Host {
			h.usedCores -= inst.Flavor.VCPUs
			h.usedRAM -= inst.Flavor.RAMMB
			h.usedDisk -= inst.Flavor.DiskGB
			delete(h.instances, id)
			break
		}
	}
	if wasRunning {
		c.footDec(inst.User, inst.Flavor.VCPUs)
	}
	return nil
}

// Instances lists a user's instances that still exist — BUILD, ACTIVE,
// SHUTOFF or ERROR, never TERMINATED — sorted by ID. The returned records
// are point-in-time copies: the live instances keep changing state (boot
// timers, terminations) on the shard goroutines, so handing out the
// internal pointers would race with every caller that renders them. The
// listing goes through the per-shard live index — K short bucket locks
// touching only that user's own live records — so a console list costs
// O(the user's live instances), whatever the population and however long
// the user's launch history. A terminated record stays reachable by ID
// (Instance). The "" wildcard is the audit walk instead: every record of
// every user, tombstones included.
func (c *Cloud) Instances(user string) []*Instance {
	t := c.topo.Load()
	var out []*Instance
	for _, sh := range t.sh {
		sh.mu.Lock()
		if user == "" {
			for _, i := range sh.inst {
				cp := *i
				out = append(out, &cp)
			}
		} else if a, ok := sh.users[user]; ok {
			for _, i := range a.inst {
				cp := *i
				out = append(out, &cp)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// RunningByUser returns user → (instance count, cores) for active VMs: the
// measurement the billing poller takes every minute (§6.4). The sample
// merges the K per-shard account maps — O(active users), never an
// instance walk — because every state transition maintains the counters
// under the bucket lock it already holds. Accounts whose footprint has
// drained to zero are graves kept only for delta bookkeeping and are
// skipped here, so the result is key-identical to a full recount.
func (c *Cloud) RunningByUser() map[string][2]int {
	t := c.topo.Load()
	out := make(map[string][2]int)
	for _, sh := range t.sh {
		sh.mu.Lock()
		for user, a := range sh.users {
			if a.n == 0 {
				continue
			}
			v := out[user]
			v[0] += a.n
			v[1] += a.cores
			out[user] = v
		}
		sh.mu.Unlock()
	}
	return out
}

// UsageRev returns the cloud's current usage revision: a counter bumped,
// under the owning bucket's lock, by every footprint change. Equal revs
// imply identical usage snapshots; the converse does not hold (a bump
// with no net visible change — e.g. terminating a SHUTOFF instance
// releases host cores — still advances the rev so caches stay honest).
func (c *Cloud) UsageRev() int64 { return c.usageRev.Load() }

// UsageDelta describes how per-user running footprints changed since an
// earlier revision. Changed holds absolute (count, cores) values — not
// increments — so applying a delta is idempotent and over-reporting a
// user is harmless. Removed lists users whose footprint drained to zero
// in the window. When Reset is true the receiver must drop its snapshot
// and take Changed as the complete population (since predates what the
// counters can answer, or the caller is ahead of this cloud's rev — a
// restart).
type UsageDelta struct {
	Rev     int64
	Changed map[string][2]int
	Removed []string
	Reset   bool
}

// UsageSince reports every user whose footprint changed after revision
// since. The rev is loaded before the bucket walk: any transition that
// lands mid-walk carries a rev greater than the returned one, so a
// just-missed change is re-sent on the next poll rather than lost.
// since <= 0 or since beyond the current rev yields a full snapshot with
// Reset set.
func (c *Cloud) UsageSince(since int64) UsageDelta {
	rev := c.usageRev.Load()
	if since <= 0 || since > rev {
		full := c.RunningByUser()
		if len(full) == 0 {
			full = nil
		}
		return UsageDelta{Rev: rev, Changed: full, Reset: true}
	}
	t := c.topo.Load()
	// First pass: collect per-shard contributions for every user touched
	// after since. A user's merged footprint needs all K shards' accounts,
	// not just the ones that changed, so note the names first and total
	// them in a second pass.
	touched := make(map[string]bool)
	for _, sh := range t.sh {
		sh.mu.Lock()
		for user, a := range sh.users {
			if a.rev > since {
				touched[user] = true
			}
		}
		sh.mu.Unlock()
	}
	if len(touched) == 0 {
		return UsageDelta{Rev: rev}
	}
	merged := make(map[string][2]int, len(touched))
	for _, sh := range t.sh {
		sh.mu.Lock()
		for user := range touched {
			if a, ok := sh.users[user]; ok && a.n != 0 {
				v := merged[user]
				v[0] += a.n
				v[1] += a.cores
				merged[user] = v
			}
		}
		sh.mu.Unlock()
	}
	d := UsageDelta{Rev: rev}
	for user := range touched {
		if v, ok := merged[user]; ok {
			if d.Changed == nil {
				d.Changed = make(map[string][2]int)
			}
			d.Changed[user] = v
		} else {
			d.Removed = append(d.Removed, user)
		}
	}
	sort.Strings(d.Removed)
	return d
}
