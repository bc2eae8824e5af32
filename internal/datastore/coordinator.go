package datastore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"osdc/internal/datasets"
	"osdc/internal/fanout"
	"osdc/internal/sim"
	"osdc/internal/simnet"
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

// Stats is a snapshot of everything the coordinator has done.
type Stats struct {
	Rounds      int64
	Transfers   int64 // completed replica installs
	BytesMoved  int64
	Retransmits int64
	MaxInFlight int // most concurrent in-flight transfers observed
	Links       []LinkStats
}

// observeGrace is how many consecutive failed observations a site gets
// before its last-known replicas stop counting toward replication
// factors. One slow listing (GC pause, restart) must not trigger a round of
// duplicate repairs; a site silent this long is treated as gone and its
// datasets are repaired elsewhere.
const observeGrace = 2

// coordinatorWorkers bounds the coordinator's site fan-out pools.
const coordinatorWorkers = 8

// Options tune a Coordinator.
type Options struct {
	// Factor is the target replication factor of every dataset (< 1
	// means 1).
	Factor int
	// Seed feeds the coordinator's private RNG (flow loss sampling).
	Seed uint64
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

	mu    sync.Mutex
	rng   *sim.RNG
	sites []API
	// siteDeadline is the per-site wall budget for one ListSince during a
	// round; a site answering slower is counted unreachable for the
	// round. Start tightens it to the loop's round deadline.
	siteDeadline time.Duration
	inflight     map[string]*Transfer // key dataset + "→" + destination site
	stats        Stats
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

	loop *fanout.Loop // Start's; nil for a coordinator driven by Round
}

// NewCoordinator builds a coordinator over the engine's virtual clock, the
// topology nw, the catalog (the universe of datasets worth replicating)
// and the given site stores. It does not start a loop: call Round directly
// (scenarios) or Start (live federations).
func NewCoordinator(e *sim.Engine, nw *simnet.Network, cat *datasets.Catalog, opt Options, sites ...API) *Coordinator {
	if opt.Factor < 1 {
		opt.Factor = 1
	}
	c := &Coordinator{
		engine: e, nw: nw, catalog: cat,
		factor:       opt.Factor,
		rng:          sim.NewRNG(opt.Seed ^ 0xda7a),
		sites:        append([]API(nil), sites...),
		siteDeadline: 10 * time.Second,
		inflight:     make(map[string]*Transfer),
		linkStats:    make(map[string]*LinkStats),
		lastSeen:     make(map[string]map[string]Replica),
		knownRev:     make(map[string]int64),
		missed:       make(map[string]int),
		pinned:       make(map[string]bool),
	}
	return c
}

// Start runs Round every interval of wall time until Stop. The per-site
// read deadline becomes fanout.RoundDeadline(interval), so a hung site
// cannot eat the round (ROADMAP: coordinator fan-out).
func (c *Coordinator) Start(interval time.Duration) {
	c.mu.Lock()
	c.siteDeadline = fanout.RoundDeadline(interval)
	c.mu.Unlock()
	c.loop = fanout.Every(interval, func() { c.Round() })
}

// Stop halts the Start loop once its round in flight has finished, and
// returns at once if Start never ran. Idempotent.
func (c *Coordinator) Stop() { c.loop.Stop() }

// pathBetween derives the flow path for a transfer between two simnet
// sites; co-located sites move over the LAN.
func (c *Coordinator) pathBetween(fromLoc, toLoc string) transport.Path {
	if fromLoc == toLoc || c.nw == nil {
		return transport.Path{BandwidthBps: 10 * simnet.Gbit, RTT: 100 * sim.Microsecond, MSS: transport.DefaultMSS}
	}
	return transport.PathBetween(c.nw, simnet.Gateway(fromLoc), simnet.Gateway(toLoc))
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
	// reads only the churn since. Index i maps results to sites, so the
	// fan-out stays deterministic.
	type listing struct {
		delta Delta
		err   error
	}
	sites := c.sites
	listings, completed := fanout.Each(context.Background(), coordinatorWorkers, c.siteDeadline, len(sites), func(ctx context.Context, i int) listing {
		d, err := sites[i].ListSince(ctx, c.knownRev[sites[i].Name()])
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
			c.missed[name]++
			allObserved = false
			// Inside the grace window a silent site's last-known replicas
			// still count toward every factor — one slow listing must not
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
	}
	c.lastSeen = newSeen

	// Plan transfers for under-replicated datasets, deterministically:
	// datasets in name order, destinations by (observed bytes, name),
	// sources rotated by per-round outgoing count.
	outgoing := make(map[string]int)
	var plans []*Transfer
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
		deficit := c.factor - countedBy[d.Name] - pending
		if deficit <= 0 {
			// Over-replication (a site that outlived its grace window
			// coming back, say) drains back to the target — but only on
			// full information, and never from the anchor site (the
			// first-listed store, which holds the masters).
			if excess := len(holders) - c.factor; excess > 0 && pending == 0 && allObserved {
				c.drainLocked(d.Name, holders, excess, bytesBy)
			}
			continue
		}
		if len(holders) == 0 {
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
			})
			bytesBy[dst.Name()] += rep.SizeBytes
			deficit--
		}
	}

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
		if err := s.Delete(context.Background(), dataset); err == nil {
			delete(c.lastSeen[cands[i]], dataset)
		}
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
// stamps each transfer's arrival time. Every link draws from the
// coordinator's one RNG stream, in link-name order, so pricing does not
// depend on the kernel's shard count.
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
	for _, link := range links {
		group := byLink[link]
		path := c.pathBetween(c.locOf(group[0].From), c.locOf(group[0].To))
		ctrls := make([]transport.Controller, len(group))
		sizes := make([]int64, len(group))
		for i, t := range group {
			ctrls[i] = udt.NewRateControl(path)
			sizes[i] = t.Bytes
		}
		results := transport.SimulateShared(c.rng, path, ctrls, sizes, transport.Caps{})
		for i, t := range group {
			t.ArriveAt = now + sim.Time(results[i].Duration)
			t.Retransmit = results[i].Retransmit
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
// a concurrent Round cannot install them twice; a Put cut at its deadline
// is counted as a site error even if the site stored it first, which the
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
	deadline := c.siteDeadline
	c.mu.Unlock()

	putErrs, completed := fanout.Each(context.Background(), coordinatorWorkers, deadline, len(jobs), func(ctx context.Context, i int) error {
		j, t := jobs[i], jobs[i].t
		switch {
		case j.corrupt && j.src != nil:
			_ = j.src.Delete(ctx, t.Dataset)
		case !j.corrupt && j.dst != nil:
			return j.dst.Put(ctx, Replica{
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
		if !jobs[i].corrupt && jobs[i].dst != nil && completed[i] && putErrs[i] == nil {
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
	if _, err := dst.Get(context.Background(), dataset); err == nil {
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
		found, completed := fanout.Each(context.Background(), coordinatorWorkers, c.siteDeadline, len(c.sites), func(ctx context.Context, i int) lookup {
			if c.sites[i].Name() == site {
				return lookup{err: ErrNoReplica}
			}
			r, err := c.sites[i].Get(ctx, dataset)
			return lookup{r, err}
		})
		for i, s := range c.sites {
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
		row := PlacementRow{Dataset: d.Name, Target: c.factor}
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
	out.Links = make([]LinkStats, 0, len(c.linkStats))
	for _, l := range c.linkStats {
		out.Links = append(out.Links, *l)
	}
	sort.Slice(out.Links, func(i, j int) bool { return out.Links[i].Link < out.Links[j].Link })
	return out
}
