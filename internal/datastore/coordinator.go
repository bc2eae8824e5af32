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
// Every decision is a pure method on its view, which holds no context and
// no lock and calls no site: arrive takes transfers whose flows have landed
// out of flight and names the calls that install them, step folds a
// round's listings into the view and plans, and settle books the answers
// to those calls. do makes the calls, and is the only code that calls a
// site: it runs a batch through the bounded fan-out pool with c.mu
// released, so a hung site holds up only the operation waiting on it.
//
// Each Round (1) installs transfers whose simulated flows have arrived,
// verifying checksums first, (2) reads every site's inventory churn, (3)
// steps, planning transfers for under-replicated datasets and drains for
// over-replicated ones, and (4) prices every planned flow by running it
// through transport.SimulateShared over the simnet path it crosses, so
// flows planned in the same round onto the same link contend with each
// other and arrival times accrue on the shared engine's virtual clock. A
// transfer that arrives corrupt is not installed; the corrupt source
// replica is dropped so the next round repairs from a healthy copy. A
// detached site's replicas stop counting, and the next rounds restore the
// factor on the remaining sites with bounded traffic (exactly the lost
// copies), all recorded in Stats.
type Coordinator struct {
	engine  *sim.Engine
	nw      *simnet.Network
	catalog *datasets.Catalog
	ctx     context.Context // every round's calls run under it; Stop cancels it
	cancel  context.CancelFunc

	mu    sync.Mutex
	rng   *sim.RNG
	sites []API // indexed like v.sites
	v     view
	// siteDeadline is the per-site wall budget of one call; a site
	// answering slower is counted failed. Start tightens it to the loop's
	// round deadline.
	siteDeadline time.Duration

	loop *fanout.Loop // Start's; nil for a coordinator driven by Round
}

// NewCoordinator builds a coordinator over the engine's virtual clock, the
// topology nw, the catalog (the universe of datasets worth replicating)
// and the given site stores. It does not start a loop: call Round directly
// (scenarios) or Start (live federations).
func NewCoordinator(e *sim.Engine, nw *simnet.Network, cat *datasets.Catalog, opt Options, sites ...API) *Coordinator {
	c := &Coordinator{
		engine: e, nw: nw, catalog: cat,
		rng:          sim.NewRNG(opt.Seed ^ 0xda7a),
		sites:        append([]API(nil), sites...),
		v:            newView(max(opt.Factor, 1), sites),
		siteDeadline: 10 * time.Second,
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Start runs Round every interval of wall time until Stop. The per-site
// deadline becomes fanout.RoundDeadline(interval), so a hung site cannot
// eat the round (ROADMAP: coordinator fan-out).
func (c *Coordinator) Start(interval time.Duration) {
	c.mu.Lock()
	c.siteDeadline = fanout.RoundDeadline(interval)
	c.mu.Unlock()
	c.loop = fanout.Every(interval, func() { c.Round() })
}

// Stop cancels the round in flight, whose site calls return at once, and
// halts the Start loop once that round has finished; it returns at once if
// Start never ran. Every later coordinator call to a site fails at once.
// Idempotent.
func (c *Coordinator) Stop() {
	c.cancel()
	c.loop.Stop()
}

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
	lists := c.v.lists()
	c.mu.Unlock()
	answers := c.do(c.ctx, lists)
	c.mu.Lock()
	plans, drains := c.v.step(c.catalog.All(), answers)
	c.price(now, plans)
	c.mu.Unlock()
	c.settle(drains, c.do(c.ctx, drains))
	return len(plans), arrived
}

// completeArrived installs every transfer whose flow has arrived by
// virtual time now, verifying checksums first. Returns how many arrived.
// Due transfers leave flight before the lock drops, so a concurrent caller
// cannot install them twice.
func (c *Coordinator) completeArrived(now sim.Time) int {
	c.mu.Lock()
	calls := c.v.arrive(c.v.due(now))
	c.mu.Unlock()
	c.settle(calls, c.do(c.ctx, calls))
	return len(calls)
}

// settle books answered calls into the view.
func (c *Coordinator) settle(calls []call, answers []answer) {
	if len(calls) == 0 {
		return
	}
	c.mu.Lock()
	c.v.settle(calls, answers)
	c.mu.Unlock()
}

// op is what a call asks of a site.
type op uint8

const (
	opList op = iota
	opGet
	opPut
	opDelete
)

// call is one site request a decision asks do to make.
type call struct {
	op    op
	site  int     // index into the coordinator's sites
	rep   Replica // opPut installs it; opGet and opDelete name rep.Dataset
	since int64   // opList
}

// answer is what a call brought back; err is set for a call that failed
// or was cut.
type answer struct {
	err   error
	rep   Replica // opGet
	delta Delta   // opList
}

// errNoAnswer marks a call do cut: its site did not answer before the
// deadline, or the caller's context ended first.
var errNoAnswer = errors.New("datastore: site did not answer in time")

// do is the only code that calls a site. It makes calls through the
// bounded pool, each under ctx and the per-site deadline, with c.mu
// released, and returns each call's answer in call order.
func (c *Coordinator) do(ctx context.Context, calls []call) []answer {
	if len(calls) == 0 {
		return nil
	}
	c.mu.Lock()
	sites, deadline := c.sites, c.siteDeadline
	c.mu.Unlock()
	answers, done := fanout.Each(ctx, coordinatorWorkers, deadline, len(calls), func(ctx context.Context, i int) (a answer) {
		k, s := calls[i], sites[calls[i].site]
		switch k.op {
		case opList:
			a.delta, a.err = s.ListSince(ctx, k.since)
		case opGet:
			a.rep, a.err = s.Get(ctx, k.rep.Dataset)
		case opPut:
			a.err = s.Put(ctx, k.rep)
		case opDelete:
			a.err = s.Delete(ctx, k.rep.Dataset)
		}
		return a
	})
	for i := range answers {
		if !done[i] {
			answers[i].err = errNoAnswer
		}
	}
	return answers
}

// view is everything the coordinator knows, and every decision it makes is
// a method on it: a pure function of the view and its arguments.
type view struct {
	factor   int
	sites    []siteView     // attachment order; sites[0] holds the masters
	index    map[string]int // site name → position in sites
	byName   []int          // positions in site-name order: every tie-break
	inflight map[pair]*Transfer
	// pinned marks Stage's deliberate placements: the drain never removes
	// them — a user parked that replica next to their compute on purpose.
	pinned map[pair]bool
	stats  Stats
	links  map[string]*LinkStats
}

// pair is {dataset, site}: an in-flight transfer's destination, or a pin.
type pair [2]string

// siteView is one site as the coordinator last saw it.
type siteView struct {
	name, loc string
	// seen is the site's inventory as of rev, patched by each answered
	// listing. A silent site's stays in place for observeGrace rounds,
	// then goes with its rev, so its next answer is a full snapshot.
	seen   map[string]Replica
	rev    int64
	missed int // consecutive failed listings
}

func newView(factor int, sites []API) view {
	v := view{factor: factor, index: make(map[string]int, len(sites)),
		inflight: make(map[pair]*Transfer), pinned: make(map[pair]bool),
		links: make(map[string]*LinkStats)}
	for i, s := range sites {
		v.sites = append(v.sites, siteView{name: s.Name(), loc: s.Loc()})
		v.index[s.Name()] = i
		v.byName = append(v.byName, i)
	}
	sort.Slice(v.byName, func(a, b int) bool { return v.sites[v.byName[a]].name < v.sites[v.byName[b]].name })
	return v
}

// due returns the in-flight transfers whose flows have arrived by now.
func (v *view) due(now sim.Time) []*Transfer {
	var due []*Transfer
	for _, t := range v.inflight {
		if t.ArriveAt <= now {
			due = append(due, t)
		}
	}
	return due
}

// arrive takes arrived transfers out of flight, books their bytes to their
// links, and returns one call each: the Put that installs a verified copy,
// or — the flow delivered a corrupt copy — the Delete that drops the
// source's bad replica so a later round repairs from a healthy holder.
func (v *view) arrive(due []*Transfer) []call {
	calls := make([]call, 0, len(due))
	for _, t := range due {
		delete(v.inflight, pair{t.Dataset, t.To})
		link, ok := v.links[t.Link]
		if !ok {
			link = &LinkStats{Link: t.Link}
			v.links[t.Link] = link
		}
		link.Flows++
		link.Bytes += t.Bytes
		link.Retransmits += t.Retransmit
		v.stats.BytesMoved += t.Bytes
		v.stats.Retransmits += t.Retransmit
		if t.Checksum != Fingerprint(t.Dataset, t.Version) {
			calls = append(calls, call{op: opDelete, site: v.index[t.From], rep: Replica{Dataset: t.Dataset}})
			continue
		}
		calls = append(calls, call{op: opPut, site: v.index[t.To], rep: Replica{
			Dataset: t.Dataset, SizeBytes: t.Bytes, Checksum: t.Checksum, Version: t.Version}})
	}
	return calls
}

// settle books the answers to arrive's and step's calls: a Put answered ok
// is a completed transfer, and a Delete answered ok drops the replica from
// the site's view ahead of its next listing. A failed or cut call books
// nothing, even if the site applied it; the next listing reconciles that
// (and the drain trims a copy that over-replicates).
func (v *view) settle(calls []call, answers []answer) {
	for i, k := range calls {
		switch {
		case answers[i].err != nil:
		case k.op == opPut:
			v.stats.Transfers++
		case k.op == opDelete:
			delete(v.sites[k.site].seen, k.rep.Dataset)
		}
	}
}

// lists returns the round's observation: one ListSince per site, passing
// the revision the view reflects, so each answer carries only the churn.
func (v *view) lists() []call {
	calls := make([]call, len(v.sites))
	for i, s := range v.sites {
		calls[i] = call{op: opList, site: i, since: s.rev}
	}
	return calls
}

// step is the round's decision. It folds each site's listing answer
// (answers[i] for sites[i]) into the view, then plans, deterministically:
// datasets in catalog order, destinations by (observed bytes, name),
// sources rotated by per-round outgoing count. Plans join the flight set
// unpriced; drains are the Deletes that trim over-replicated datasets.
func (v *view) step(cat []*datasets.Dataset, answers []answer) (plans []*Transfer, drains []call) {
	v.stats.Rounds++
	allObserved := true
	bytesBy := make([]int64, len(v.sites)) // observed stored bytes
	for i := range v.sites {
		s := &v.sites[i]
		if answers[i].err != nil {
			allObserved = false
			// Inside the grace window a silent site's last-known replicas
			// still count toward every factor — one slow listing must not
			// trigger duplicate repairs — but the site serves as neither
			// source nor destination until it answers again.
			if s.missed++; s.missed > observeGrace {
				s.seen, s.rev = nil, 0
			}
			continue
		}
		s.missed = 0
		s.observe(answers[i].delta)
		for _, r := range s.seen {
			bytesBy[i] += r.SizeBytes
		}
	}
	outgoing := make([]int, len(v.sites))
	var holders, cands []int
	for _, d := range cat {
		holders, cands = holders[:0], cands[:0] // observed this round, by name
		counted, pending := 0, 0                // counted: grace-carried too
		for _, i := range v.byName {
			if _, ok := v.sites[i].seen[d.Name]; ok {
				counted++
				if v.sites[i].missed == 0 {
					holders = append(holders, i)
				}
			}
		}
		for _, t := range v.inflight {
			if t.Dataset == d.Name {
				pending++
			}
		}
		deficit := v.factor - counted - pending
		if deficit <= 0 {
			// Over-replication (a site that outlived its grace window
			// coming back, say) drains back to the target — but only on
			// full information.
			if excess := len(holders) - v.factor; excess > 0 && pending == 0 && allObserved {
				drains = v.drain(drains, d.Name, holders, excess, bytesBy)
			}
			continue
		}
		if len(holders) == 0 {
			continue
		}
		// Candidate destinations: answering sites neither holding nor
		// already receiving this dataset, least-loaded first.
		for _, i := range v.byName {
			s := &v.sites[i]
			if _, holds := s.seen[d.Name]; s.missed == 0 && !holds && v.inflight[pair{d.Name, s.name}] == nil {
				cands = append(cands, i)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return bytesBy[cands[a]] < bytesBy[cands[b]] })
		for _, dst := range cands[:min(deficit, len(cands))] {
			src := holders[0]
			for _, h := range holders[1:] {
				if outgoing[h] < outgoing[src] {
					src = h
				}
			}
			outgoing[src]++
			t := v.transfer(v.sites[src].seen[d.Name], src, dst)
			plans = append(plans, t)
			bytesBy[dst] += t.Bytes
		}
	}
	return plans, drains
}

// observe patches the site's view with a listing: from scratch on a Reset
// snapshot, else in place.
func (s *siteView) observe(d Delta) {
	if d.Reset || s.seen == nil {
		s.seen = make(map[string]Replica, len(d.Changed))
	}
	for _, r := range d.Changed {
		s.seen[r.Dataset] = r
	}
	for _, ds := range d.Removed {
		delete(s.seen, ds)
	}
	s.rev = d.Rev
}

// drain appends Deletes of excess confirmed replicas of dataset back to
// the target factor: most-loaded holders first (name-descending
// tie-break), never the anchor site's copy (sites[0] holds the masters)
// nor a pinned one.
func (v *view) drain(drains []call, dataset string, holders []int, excess int, bytesBy []int64) []call {
	var cands []int
	for j := len(holders) - 1; j >= 0; j-- {
		if h := holders[j]; h != 0 && !v.pinned[pair{dataset, v.sites[h].name}] {
			cands = append(cands, h)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return bytesBy[cands[a]] > bytesBy[cands[b]] })
	for _, h := range cands[:min(excess, len(cands))] {
		drains = append(drains, call{op: opDelete, site: h, rep: Replica{Dataset: dataset}})
	}
	return drains
}

// transfer plans a move of rep from site src to site dst and puts it in
// flight, unpriced.
func (v *view) transfer(rep Replica, src, dst int) *Transfer {
	from, to := &v.sites[src], &v.sites[dst]
	t := &Transfer{Dataset: rep.Dataset, From: from.name, To: to.name,
		Link:  from.loc + "→" + to.loc,
		Bytes: rep.SizeBytes, Checksum: rep.Checksum, Version: rep.Version}
	v.inflight[pair{t.Dataset, t.To}] = t
	v.stats.MaxInFlight = max(v.stats.MaxInFlight, len(v.inflight))
	return t
}

// holder finds a site other than except whose newest view holds dataset,
// in attachment order.
func (v *view) holder(dataset string, except int) (int, Replica, bool) {
	for i, s := range v.sites {
		if r, ok := s.seen[dataset]; ok && i != except {
			return i, r, true
		}
	}
	return 0, Replica{}, false
}

// price runs the planned transfers as simulated flows, grouped by directed
// link so same-link flows contend at the shared bottleneck, and stamps
// each transfer's arrival time. Every link draws from the coordinator's
// one RNG stream, in link-name order, so pricing does not depend on the
// kernel's shard count. The caller holds c.mu.
func (c *Coordinator) price(now sim.Time, plans []*Transfer) {
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
		from, to := c.v.sites[c.v.index[group[0].From]], c.v.sites[c.v.index[group[0].To]]
		path := c.pathBetween(from.loc, to.loc)
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

// InFlight reports the number of transfers currently in flight.
func (c *Coordinator) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.v.inflight)
}

// NextArrival returns the earliest in-flight arrival time, and whether any
// transfer is in flight — what a scenario advances the engine to.
func (c *Coordinator) NextArrival() (sim.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min sim.Time
	found := false
	for _, t := range c.v.inflight {
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
// pre-launch placement call behind POST /console/datasets/stage. Its site
// calls end with ctx. The returned ETA is in virtual seconds; the replica
// installs when the engine's clock passes it (a Round or Poll observes the
// arrival).
func (c *Coordinator) Stage(ctx context.Context, dataset, site string) (StageStatus, error) {
	now := c.engine.Now()
	c.completeArrived(now)
	c.mu.Lock()
	dst, ok := c.v.index[site]
	if !ok {
		c.mu.Unlock()
		return StageStatus{}, fmt.Errorf("datastore: no site %q in the placement set", site)
	}
	// A staged placement is deliberate: pin it so the over-replication
	// drain never removes it out from under the user's compute.
	c.v.pinned[pair{dataset, site}] = true
	// Ask the destination; when the newest round's view knows no holder
	// (the coordinator may never have run a round), ask every other site
	// in the same batch.
	gets := []call{{op: opGet, site: dst, rep: Replica{Dataset: dataset}}}
	if _, _, known := c.v.holder(dataset, dst); !known {
		for i := range c.v.sites {
			if i != dst {
				gets = append(gets, call{op: opGet, site: i, rep: Replica{Dataset: dataset}})
			}
		}
	}
	c.mu.Unlock()
	answers := c.do(ctx, gets)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := answers[0].err; err == nil {
		return StageStatus{Dataset: dataset, Site: site, State: "present"}, nil
	} else if !errors.Is(err, ErrNoReplica) {
		// An unreachable destination is an error, not "absent": planning
		// a transfer whose install can never land would have the client
		// polling "staging" forever.
		return StageStatus{}, fmt.Errorf("datastore: site %q unreachable: %w", site, err)
	}
	t, ok := c.v.inflight[pair{dataset, site}]
	if !ok {
		src, rep, found := c.v.holder(dataset, dst)
		for j := 1; !found && j < len(gets); j++ {
			if answers[j].err == nil {
				src, rep, found = gets[j].site, answers[j].rep, true
			}
		}
		if !found {
			return StageStatus{}, fmt.Errorf("datastore: no site holds a replica of %q", dataset)
		}
		t = c.v.transfer(rep, src, dst)
		c.price(now, []*Transfer{t})
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
		row := PlacementRow{Dataset: d.Name, Target: c.v.factor}
		for _, i := range c.v.byName {
			if _, ok := c.v.sites[i].seen[d.Name]; ok {
				row.Sites = append(row.Sites, c.v.sites[i].name)
			}
		}
		for _, t := range c.v.inflight {
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
	out := c.v.stats
	out.Links = make([]LinkStats, 0, len(c.v.links))
	for _, l := range c.v.links {
		out.Links = append(out.Links, *l)
	}
	sort.Slice(out.Links, func(i, j int) bool { return out.Links[i].Link < out.Links[j].Link })
	return out
}
