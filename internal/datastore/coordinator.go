package datastore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"osdc/internal/datasets"
	"osdc/internal/fanout"
	"osdc/internal/sim"
	"osdc/internal/simnet"
	"osdc/internal/tcpmodel"
	"osdc/internal/transport"
	"osdc/internal/udt"
)

// Transfer is one replica move in flight: planned by the coordinator,
// simulated as a WAN flow, installed at the destination when the engine's
// virtual clock passes ArriveAt.
type Transfer struct {
	Dataset    string
	From, To   string // federation site names
	Link       string // "fromLoc→toLoc"
	Bytes      int64
	Checksum   string // carried from the source replica; verified on arrival
	Version    int
	PlannedAt  sim.Time
	ArriveAt   sim.Time
	Retransmit int64 // packets retransmitted by the simulated flow
}

// LinkStats aggregates the coordinator's traffic over one directed
// topology path.
type LinkStats struct {
	Link        string `json:"link"`
	Flows       int64  `json:"flows"`
	Bytes       int64  `json:"bytes"`
	Retransmits int64  `json:"retransmits"`
}

// SiteStats is the coordinator's view of one site's data-plane health.
type SiteStats struct {
	Site           string `json:"site"`
	Replicas       int    `json:"replicas"` // last observed inventory size
	Bytes          int64  `json:"bytes"`    // last observed stored bytes
	PutBytes       int64  `json:"put_bytes"`
	Errors         int64  `json:"errors"` // unreachable lists / failed puts
	FailedVerifies int64  `json:"failed_verifies"`
}

// Stats is a snapshot of everything the coordinator has done.
type Stats struct {
	Rounds         int64
	Transfers      int64 // completed replica installs
	BytesMoved     int64
	Retransmits    int64
	MaxInFlight    int // most concurrent in-flight transfers observed
	FailedVerifies int64
	Aborted        int64 // transfers dropped when their site detached
	Drained        int64 // excess replicas deleted back to the target factor
	LostDatasets   int   // datasets with no replica anywhere, last round
	Sites          []SiteStats
	Links          []LinkStats
}

// observeGrace is how many consecutive failed observations a site gets
// before its last-known replicas stop counting toward replication
// factors. One slow List (GC pause, restart) must not trigger a round of
// duplicate repairs; a site silent this long is treated as gone and its
// datasets are repaired elsewhere.
const observeGrace = 2

// Options tune a Coordinator.
type Options struct {
	// Factor is the default target replication factor (< 1 means 1).
	Factor int
	// Factors overrides the target per dataset name.
	Factors map[string]int
	// Protocol picks the simulated transfer flow: "udt" (default) or
	// "tcp" (Reno with a BDP-sized window).
	Protocol string
	// Workers bounds the site fan-out pool (default 8).
	Workers int
	// SiteDeadline is the per-site wall budget for one List during a
	// round; a site answering slower is counted unreachable for the
	// round. Start() tightens it to half the round interval. 0 = 10 s.
	SiteDeadline time.Duration
	// Seed feeds the coordinator's private RNG (flow loss sampling).
	Seed uint64
	// Shards, when set with K > 1, homes each round's flow groups by link
	// name and prices them concurrently across shards (per-link RNG
	// streams). Nil or K = 1 keeps the serial single-stream pricing path —
	// the one the scenario goldens are pinned against.
	Shards *sim.ShardSet
}

// Coordinator keeps every catalog dataset at its target replication factor
// across the federation's site stores — the console-side planning loop of
// the data plane, shaped like cloudapi.ClockCoordinator.
//
// Each Round it (1) installs transfers whose simulated flows have arrived,
// verifying checksums first, (2) reads every site's inventory through a
// bounded fan-out pool, (3) plans transfers for under-replicated datasets
// — deterministic source/destination choice — and (4) prices every planned
// flow by running it through transport.SimulateShared over the simnet
// path it crosses, so flows planned in the same round onto the same link
// contend with each other and arrival times accrue on the shared engine's
// virtual clock. A transfer that arrives corrupt is not installed; the
// corrupt source replica is dropped so the next round repairs from a
// healthy copy. A detached site's replicas stop counting, and the next
// rounds restore the factor on the remaining sites with bounded traffic
// (exactly the lost copies), all recorded in Stats.
type Coordinator struct {
	engine  *sim.Engine
	nw      *simnet.Network
	catalog *datasets.Catalog
	factor  int
	factors map[string]int
	proto   string
	workers int

	shards  *sim.ShardSet
	rngSeed uint64

	mu           sync.Mutex
	rng          *sim.RNG
	sites        []API
	siteDeadline time.Duration
	inflight     map[string]*Transfer // key dataset + "→" + destination site
	stats        Stats
	siteStats    map[string]*SiteStats
	linkStats    map[string]*LinkStats
	// lastSeen is each site's inventory from the newest round it answered
	// (carried forward through the observeGrace window), keyed site →
	// dataset; Stage reads it before falling back to Gets.
	lastSeen map[string]map[string]Replica
	// knownRev is the store revision each site's lastSeen entry reflects:
	// what the next round's ListSince passes, so observation reads only
	// the churn since the last answer instead of the full inventory.
	knownRev map[string]int64
	// missed counts a site's consecutive failed observations.
	missed map[string]int
	// pinned marks deliberate placements (dataset + "→" + site, the
	// inflight key form) made by Stage: the drain never removes them —
	// a user parked that replica next to their compute on purpose.
	pinned map[string]bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewCoordinator builds a coordinator over the engine's virtual clock, the
// topology nw, the catalog (the universe of datasets worth replicating)
// and the given site stores. It does not start a loop: call Round directly
// (scenarios) or Start (live federations).
func NewCoordinator(e *sim.Engine, nw *simnet.Network, cat *datasets.Catalog, opt Options, sites ...API) *Coordinator {
	if opt.Factor < 1 {
		opt.Factor = 1
	}
	if opt.Workers < 1 {
		opt.Workers = 8
	}
	if opt.SiteDeadline <= 0 {
		opt.SiteDeadline = 10 * time.Second
	}
	if opt.Protocol == "" {
		opt.Protocol = "udt"
	}
	c := &Coordinator{
		engine: e, nw: nw, catalog: cat,
		factor: opt.Factor, factors: opt.Factors,
		proto: opt.Protocol, workers: opt.Workers,
		shards: opt.Shards, rngSeed: opt.Seed ^ 0xda7a,
		rng:          sim.NewRNG(opt.Seed ^ 0xda7a),
		sites:        append([]API(nil), sites...),
		siteDeadline: opt.SiteDeadline,
		inflight:     make(map[string]*Transfer),
		siteStats:    make(map[string]*SiteStats),
		linkStats:    make(map[string]*LinkStats),
		lastSeen:     make(map[string]map[string]Replica),
		knownRev:     make(map[string]int64),
		missed:       make(map[string]int),
		pinned:       make(map[string]bool),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for _, s := range sites {
		c.siteStats[s.Name()] = &SiteStats{Site: s.Name()}
	}
	return c
}

// Start runs Round every interval of wall time until Stop. The per-site
// read deadline becomes half the interval, so a hung site cannot eat the
// round (ROADMAP: coordinator fan-out).
func (c *Coordinator) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	c.mu.Lock()
	c.siteDeadline = interval / 2
	c.mu.Unlock()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.Round()
			}
		}
	}()
}

// Stop halts the Start loop, if one is running. Idempotent.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
	}
}

// targetFor is the replication factor a dataset must reach.
func (c *Coordinator) targetFor(dataset string) int {
	if n, ok := c.factors[dataset]; ok && n >= 1 {
		return n
	}
	return c.factor
}

// pathBetween derives the flow path for a transfer between two simnet
// sites; co-located sites move over the LAN.
func (c *Coordinator) pathBetween(fromLoc, toLoc string) transport.Path {
	if fromLoc == toLoc || c.nw == nil {
		return transport.Path{BandwidthBps: 10 * simnet.Gbit, RTT: 100 * sim.Microsecond, MSS: transport.DefaultMSS}
	}
	return transport.PathBetween(c.nw, simnet.Gateway(fromLoc), simnet.Gateway(toLoc))
}

// controller builds one flow's congestion-control law.
func (c *Coordinator) controller(path transport.Path) transport.Controller {
	if c.proto == "tcp" {
		win := int(path.BDP())
		if win < 64<<10 {
			win = 64 << 10
		}
		return tcpmodel.NewReno(path, win)
	}
	return udt.NewRateControl(path)
}

// Round advances the coordinator one planning cycle. It returns how many
// transfers were newly planned and how many arrived (installed or failed
// verification) this round; planned == 0 with InFlight() == 0 means the
// placement has converged.
func (c *Coordinator) Round() (planned, arrived int) {
	now := c.engine.Now()
	arrived = c.completeArrived(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Rounds++

	// Observe every site through the bounded pool, as deltas: each task
	// passes the revision the coordinator's view already reflects and
	// reads only the churn since. A plane that cannot serve the delta
	// route falls back to a full List (treated as a Reset snapshot).
	// Index i maps results to sites, so the fan-out stays deterministic;
	// the tasks read copies, since an abandoned one may outlive c.mu.
	type listing struct {
		delta Delta
		err   error
	}
	sites := append([]API(nil), c.sites...)
	since := make([]int64, len(sites))
	for i, s := range sites {
		since[i] = c.knownRev[s.Name()]
	}
	listings, completed := fanout.Each(c.workers, c.siteDeadline, len(sites), func(i int) listing {
		d, err := sites[i].ListSince(since[i])
		if err != nil {
			if reps, lerr := sites[i].List(); lerr == nil {
				d, err = Delta{Changed: reps, Reset: true}, nil
			}
		}
		return listing{d, err}
	})

	reachable := make([]API, 0, len(sites))
	confirmedBy := make(map[string][]string) // dataset → sites observed holding it this round
	countedBy := make(map[string]int)        // dataset → holders incl. grace-carried silent sites
	bytesBy := make(map[string]int64)        // site → observed stored bytes
	newSeen := make(map[string]map[string]Replica)
	allObserved := true
	for i, s := range sites {
		name := s.Name()
		if !completed[i] || listings[i].err != nil {
			c.siteStats[name].Errors++
			c.missed[name]++
			allObserved = false
			// Inside the grace window a silent site's last-known replicas
			// still count toward every factor — one slow List must not
			// trigger duplicate repairs — but the site serves as neither
			// source nor destination until it answers again.
			if prev, ok := c.lastSeen[name]; ok && c.missed[name] <= observeGrace {
				newSeen[name] = prev
				for ds := range prev {
					countedBy[ds]++
				}
			}
			continue
		}
		c.missed[name] = 0
		reachable = append(reachable, s)
		// Materialize the site's inventory: from scratch on a Reset
		// snapshot, else the carried view patched with the delta.
		d := listings[i].delta
		var seen map[string]Replica
		if d.Reset {
			seen = make(map[string]Replica, len(d.Changed))
		} else {
			prev := c.lastSeen[name]
			seen = make(map[string]Replica, len(prev)+len(d.Changed))
			for ds, r := range prev {
				seen[ds] = r
			}
		}
		for _, r := range d.Changed {
			seen[r.Dataset] = r
		}
		for _, ds := range d.Removed {
			delete(seen, ds)
		}
		c.knownRev[name] = d.Rev
		for ds, r := range seen {
			confirmedBy[ds] = append(confirmedBy[ds], name)
			countedBy[ds]++
			bytesBy[name] += r.SizeBytes
		}
		newSeen[name] = seen
		c.siteStats[name].Replicas = len(seen)
		c.siteStats[name].Bytes = bytesBy[name]
	}
	c.lastSeen = newSeen

	// Plan transfers for under-replicated datasets, deterministically:
	// datasets in name order, destinations by (observed bytes, name),
	// sources rotated by per-round outgoing count.
	outgoing := make(map[string]int)
	var plans []*Transfer
	lost := 0
	for _, d := range c.catalog.All() {
		holders := confirmedBy[d.Name]
		sort.Strings(holders)
		pending := 0
		pendingTo := make(map[string]bool)
		for _, t := range c.inflight {
			if t.Dataset == d.Name {
				pending++
				pendingTo[t.To] = true
			}
		}
		target := c.targetFor(d.Name)
		deficit := target - countedBy[d.Name] - pending
		if deficit <= 0 {
			// Over-replication (a site that outlived its grace window
			// coming back, say) drains back to the target — but only on
			// full information, and never from the anchor site (the
			// first-listed store, which holds the masters).
			if excess := len(holders) - target; excess > 0 && pending == 0 && allObserved {
				c.drainLocked(d.Name, holders, excess, bytesBy)
			}
			continue
		}
		if len(holders) == 0 {
			if countedBy[d.Name] == 0 && pending == 0 {
				lost++
			}
			continue
		}
		// Candidate destinations: reachable sites neither holding nor
		// already receiving this dataset, least-loaded first.
		var cands []API
		for _, s := range reachable {
			if _, holds := newSeen[s.Name()][d.Name]; !holds && !pendingTo[s.Name()] {
				cands = append(cands, s)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			bi, bj := bytesBy[cands[i].Name()], bytesBy[cands[j].Name()]
			if bi != bj {
				return bi < bj
			}
			return cands[i].Name() < cands[j].Name()
		})
		for _, dst := range cands {
			if deficit == 0 {
				break
			}
			src := holders[0]
			for _, h := range holders[1:] {
				if outgoing[h] < outgoing[src] {
					src = h
				}
			}
			outgoing[src]++
			rep := c.lastSeen[src][d.Name]
			plans = append(plans, &Transfer{
				Dataset: d.Name, From: src, To: dst.Name(),
				Link:     c.locOf(src) + "→" + dst.Loc(),
				Bytes:    rep.SizeBytes,
				Checksum: rep.Checksum, Version: rep.Version,
				PlannedAt: now,
			})
			bytesBy[dst.Name()] += rep.SizeBytes
			deficit--
		}
	}
	c.stats.LostDatasets = lost

	c.priceLocked(now, plans)
	for _, t := range plans {
		c.inflight[t.Dataset+"→"+t.To] = t
	}
	if n := len(c.inflight); n > c.stats.MaxInFlight {
		c.stats.MaxInFlight = n
	}
	return len(plans), arrived
}

// drainLocked deletes excess confirmed replicas of dataset back to the
// target factor: most-loaded holders first (name-descending tie-break),
// never the anchor site's copy (the first-listed store holds the
// masters).
func (c *Coordinator) drainLocked(dataset string, holders []string, excess int, bytesBy map[string]int64) {
	anchor := ""
	if len(c.sites) > 0 {
		anchor = c.sites[0].Name()
	}
	cands := make([]string, 0, len(holders))
	for _, h := range holders {
		if h != anchor && !c.pinned[dataset+"→"+h] {
			cands = append(cands, h)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		bi, bj := bytesBy[cands[i]], bytesBy[cands[j]]
		if bi != bj {
			return bi > bj
		}
		return cands[i] > cands[j]
	})
	for i := 0; i < excess && i < len(cands); i++ {
		s, ok := c.siteByName(cands[i])
		if !ok {
			continue
		}
		if err := s.Delete(dataset); err != nil {
			c.siteStats[cands[i]].Errors++
			continue
		}
		delete(c.lastSeen[cands[i]], dataset)
		c.stats.Drained++
	}
}

// locOf resolves a site name to its simnet location.
func (c *Coordinator) locOf(name string) string {
	for _, s := range c.sites {
		if s.Name() == name {
			return s.Loc()
		}
	}
	return ""
}

// siteByName resolves a site name to its API.
func (c *Coordinator) siteByName(name string) (API, bool) {
	for _, s := range c.sites {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// priceLocked runs the planned transfers as simulated flows, grouped by
// directed link so same-link flows contend at the shared bottleneck, and
// stamps each transfer's arrival time.
func (c *Coordinator) priceLocked(now sim.Time, plans []*Transfer) {
	byLink := make(map[string][]*Transfer)
	var links []string
	for _, t := range plans {
		if _, ok := byLink[t.Link]; !ok {
			links = append(links, t.Link)
		}
		byLink[t.Link] = append(byLink[t.Link], t)
	}
	sort.Strings(links) // deterministic RNG consumption order
	if c.shards != nil && c.shards.K() > 1 {
		c.priceShardedLocked(now, links, byLink)
		return
	}
	for _, link := range links {
		group := byLink[link]
		path := c.pathBetween(c.locOf(group[0].From), c.locOf(group[0].To))
		ctrls := make([]transport.Controller, len(group))
		sizes := make([]int64, len(group))
		for i, t := range group {
			ctrls[i] = c.controller(path)
			sizes[i] = t.Bytes
		}
		results := transport.SimulateShared(c.rng, path, ctrls, sizes, transport.Caps{})
		for i, t := range group {
			t.ArriveAt = now + sim.Time(results[i].Duration)
			t.Retransmit = results[i].Retransmit
		}
	}
}

// priceShardedLocked prices the round's link groups concurrently, homed by
// link name over the kernel's shard count — replication and staging flows
// planned in one round price in parallel while arrivals still install on
// the anchor engine's clock. Each link draws a private RNG stream seeded
// from its name, so sharded pricing is bit-deterministic for any K; it is
// a different (equally valid) loss sample than the serial path's single
// shared stream, which is why K = 1 keeps the serial path and its pinned
// goldens.
func (c *Coordinator) priceShardedLocked(now sim.Time, links []string, byLink map[string][]*Transfer) {
	groups := make([]transport.FlowGroup, len(links))
	for gi, link := range links {
		group := byLink[link]
		path := c.pathBetween(c.locOf(group[0].From), c.locOf(group[0].To))
		ctrls := make([]transport.Controller, len(group))
		sizes := make([]int64, len(group))
		for i, t := range group {
			ctrls[i] = c.controller(path)
			sizes[i] = t.Bytes
		}
		groups[gi] = transport.FlowGroup{Name: link, Path: path, Ctrls: ctrls, Sizes: sizes}
	}
	results := transport.SimulateGrouped(c.rngSeed, c.shards.K(), groups)
	for gi, link := range links {
		for i, t := range byLink[link] {
			t.ArriveAt = now + sim.Time(results[gi][i].Duration)
			t.Retransmit = results[gi][i].Retransmit
		}
	}
}

// completeArrived installs every transfer whose flow has arrived by
// virtual time now, verifying checksums first. Returns how many arrived.
//
// The remote side effects — Puts at destinations, a corrupt source's
// Delete — run through the bounded fan-out pool with c.mu RELEASED: a slow
// destination plane must not pin the coordinator lock (and with it every
// console data-plane route: Stage, Poll, Placement) for the length of an
// HTTP round trip. Due transfers leave inflight before the lock drops, so
// a concurrent Round cannot install them twice; a Put abandoned at its
// deadline is counted as a site error and may still land later, which the
// next round's delta observation reconciles (and the drain trims if it
// over-replicates).
func (c *Coordinator) completeArrived(now sim.Time) int {
	c.mu.Lock()
	var due []*Transfer
	for _, t := range c.inflight {
		if t.ArriveAt <= now {
			due = append(due, t)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].ArriveAt != due[j].ArriveAt {
			return due[i].ArriveAt < due[j].ArriveAt
		}
		if due[i].Dataset != due[j].Dataset {
			return due[i].Dataset < due[j].Dataset
		}
		return due[i].To < due[j].To
	})
	type job struct {
		t       *Transfer
		corrupt bool
		src     API // corrupt: holder of the bad copy to drop
		dst     API // healthy: destination to install at
	}
	jobs := make([]job, len(due))
	for i, t := range due {
		delete(c.inflight, t.Dataset+"→"+t.To)
		j := job{t: t, corrupt: t.Checksum != Fingerprint(t.Dataset, t.Version)}
		if j.corrupt {
			// The flow delivered what the source held — a corrupt copy.
			// Do not install it; drop the source's bad replica so the
			// next round repairs from a healthy holder.
			j.src, _ = c.siteByName(t.From)
		} else {
			j.dst, _ = c.siteByName(t.To)
		}
		jobs[i] = j
	}
	workers, deadline := c.workers, c.siteDeadline
	c.mu.Unlock()

	putErrs, completed := fanout.Each(workers, deadline, len(jobs), func(i int) error {
		j, t := jobs[i], jobs[i].t
		switch {
		case j.corrupt && j.src != nil:
			_ = j.src.Delete(t.Dataset)
		case !j.corrupt && j.dst != nil:
			return j.dst.Put(Replica{
				Dataset: t.Dataset, SizeBytes: t.Bytes,
				Checksum: t.Checksum, Version: t.Version,
			})
		}
		return nil
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range jobs {
		t := jobs[i].t
		link := c.linkStat(t.Link)
		link.Flows++
		link.Bytes += t.Bytes
		link.Retransmits += t.Retransmit
		c.stats.BytesMoved += t.Bytes
		c.stats.Retransmits += t.Retransmit
		switch {
		case jobs[i].corrupt:
			c.stats.FailedVerifies++
			if st, ok := c.siteStats[t.To]; ok {
				st.FailedVerifies++
			}
		case jobs[i].dst == nil:
			c.stats.Aborted++
		case !completed[i] || putErrs[i] != nil:
			if st, ok := c.siteStats[t.To]; ok {
				st.Errors++
			}
		default:
			if st, ok := c.siteStats[t.To]; ok {
				st.PutBytes += t.Bytes
			}
			c.stats.Transfers++
		}
	}
	return len(due)
}

func (c *Coordinator) linkStat(link string) *LinkStats {
	ls, ok := c.linkStats[link]
	if !ok {
		ls = &LinkStats{Link: link}
		c.linkStats[link] = ls
	}
	return ls
}

// InFlight reports the number of transfers currently in flight.
func (c *Coordinator) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// NextArrival returns the earliest in-flight arrival time, and whether any
// transfer is in flight — what a scenario advances the engine to.
func (c *Coordinator) NextArrival() (sim.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min sim.Time
	found := false
	for _, t := range c.inflight {
		if !found || t.ArriveAt < min {
			min, found = t.ArriveAt, true
		}
	}
	return min, found
}

// StageStatus is the console's answer to a staging request.
type StageStatus struct {
	Dataset string  `json:"dataset"`
	Site    string  `json:"site"`
	State   string  `json:"state"` // "present" or "staging"
	From    string  `json:"from,omitempty"`
	ETASecs float64 `json:"eta_s,omitempty"` // virtual seconds until arrival
}

// Stage ensures a replica of dataset on the named site, planning an
// immediate transfer from the nearest holder when one is missing — the
// pre-launch placement call behind POST /console/datasets/stage. The
// returned ETA is in virtual seconds; the replica installs when the
// engine's clock passes it (a Round or Poll observes the arrival).
func (c *Coordinator) Stage(dataset, site string) (StageStatus, error) {
	now := c.engine.Now()
	c.completeArrived(now)
	c.mu.Lock()
	defer c.mu.Unlock()

	dst, ok := c.siteByName(site)
	if !ok {
		return StageStatus{}, fmt.Errorf("datastore: no site %q in the placement set", site)
	}
	// A staged placement is deliberate: pin it so the over-replication
	// drain never removes it out from under the user's compute.
	c.pinned[dataset+"→"+site] = true
	if _, err := dst.Get(dataset); err == nil {
		return StageStatus{Dataset: dataset, Site: site, State: "present"}, nil
	} else if !errors.Is(err, ErrNoReplica) {
		// An unreachable destination is an error, not "absent": planning
		// a transfer whose install can never land would have the client
		// polling "staging" forever.
		return StageStatus{}, fmt.Errorf("datastore: site %q unreachable: %w", site, err)
	}
	if t, ok := c.inflight[dataset+"→"+site]; ok {
		return StageStatus{Dataset: dataset, Site: site, State: "staging",
			From: t.From, ETASecs: float64(t.ArriveAt - now)}, nil
	}
	// Find a holder: prefer the newest round's view (no I/O), else ask
	// every other site at once through the bounded pool — the coordinator
	// may never have run a round, and one dead site must not pin c.mu
	// (and with it every console data-plane route) for serial timeouts.
	var src API
	var rep Replica
	for _, s := range c.sites {
		if s.Name() == site {
			continue
		}
		if r, ok := c.lastSeen[s.Name()][dataset]; ok {
			src, rep = s, r
			break
		}
	}
	if src == nil {
		type lookup struct {
			r   Replica
			err error
		}
		sites := append([]API(nil), c.sites...) // an abandoned task may outlive c.mu
		found, completed := fanout.Each(c.workers, c.siteDeadline, len(sites), func(i int) lookup {
			if sites[i].Name() == site {
				return lookup{err: ErrNoReplica}
			}
			r, err := sites[i].Get(dataset)
			return lookup{r, err}
		})
		for i, s := range sites {
			if !completed[i] || found[i].err != nil {
				continue
			}
			src, rep = s, found[i].r
			break
		}
	}
	if src == nil {
		return StageStatus{}, fmt.Errorf("datastore: no site holds a replica of %q", dataset)
	}
	t := &Transfer{
		Dataset: dataset, From: src.Name(), To: site,
		Link:     src.Loc() + "→" + dst.Loc(),
		Bytes:    rep.SizeBytes,
		Checksum: rep.Checksum, Version: rep.Version,
		PlannedAt: now,
	}
	c.priceLocked(now, []*Transfer{t})
	c.inflight[dataset+"→"+site] = t
	if n := len(c.inflight); n > c.stats.MaxInFlight {
		c.stats.MaxInFlight = n
	}
	return StageStatus{Dataset: dataset, Site: site, State: "staging",
		From: t.From, ETASecs: float64(t.ArriveAt - now)}, nil
}

// PlacementRow is one dataset's placement as the console reports it.
type PlacementRow struct {
	Dataset  string   `json:"dataset"`
	Target   int      `json:"target"`
	Sites    []string `json:"sites"`
	InFlight int      `json:"in_flight"`
}

// Placement reports, per catalog dataset, which sites held a replica at
// the newest round plus the in-flight transfer count, sorted by dataset.
func (c *Coordinator) Placement() []PlacementRow {
	c.completeArrived(c.engine.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	rows := make([]PlacementRow, 0)
	for _, d := range c.catalog.All() {
		row := PlacementRow{Dataset: d.Name, Target: c.targetFor(d.Name)}
		for site, seen := range c.lastSeen {
			if _, ok := seen[d.Name]; ok {
				row.Sites = append(row.Sites, site)
			}
		}
		sort.Strings(row.Sites)
		for _, t := range c.inflight {
			if t.Dataset == d.Name {
				row.InFlight++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Stats returns a copy of the coordinator's counters, site and link tables
// sorted by name.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Sites = make([]SiteStats, 0, len(c.siteStats))
	for _, s := range c.siteStats {
		out.Sites = append(out.Sites, *s)
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].Site < out.Sites[j].Site })
	out.Links = make([]LinkStats, 0, len(c.linkStats))
	for _, l := range c.linkStats {
		out.Links = append(out.Links, *l)
	}
	sort.Slice(out.Links, func(i, j int) bool { return out.Links[i].Link < out.Links[j].Link })
	return out
}
