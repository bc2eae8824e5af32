package datastore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"osdc/internal/ark"
	"osdc/internal/datasets"
	"osdc/internal/sim"
	"osdc/internal/simnet"
)

const cgb = int64(1) << 30

// coordRig is a three-site data plane over the OSDC WAN topology: siteA
// (Chicago-Kenwood) holds the master copies, siteB (Chicago-NU) and siteC
// (AMPATH Miami) start empty.
type coordRig struct {
	e       *sim.Engine
	nw      *simnet.Network
	cat     *datasets.Catalog
	a, b, c *Store
}

func newCoordRig(t *testing.T, seed uint64) *coordRig {
	t.Helper()
	return newCoordRigOn(t, sim.NewEngine(seed))
}

// newCoordRigOn builds the rig on e — a bare engine or a kernel's anchor.
func newCoordRigOn(t *testing.T, e *sim.Engine) *coordRig {
	t.Helper()
	nw := simnet.BuildOSDCTopology(simnet.DefaultWAN())
	catVol := testVolume(t, e, "cat", 1<<40)
	cat := datasets.NewCatalog(ark.NewService(), catVol)
	cat.AddCurator("walt")

	rig := &coordRig{
		e: e, nw: nw, cat: cat,
		a: NewStore("site-a", simnet.SiteChicagoKenwood, testVolume(t, e, "a", 1<<40)),
		b: NewStore("site-b", simnet.SiteChicagoNU, testVolume(t, e, "b", 1<<40)),
		c: NewStore("site-c", simnet.SiteAMPATH, testVolume(t, e, "c", 1<<40)),
	}
	for i, d := range []datasets.Dataset{
		{Name: "Alpha Survey", SizeBytes: 1 * cgb, Discipline: "astronomy"},
		{Name: "Beta Genomes", SizeBytes: 2 * cgb, Discipline: "biology"},
		{Name: "Gamma Imagery", SizeBytes: 3 * cgb, Discipline: "earth science"},
	} {
		if _, err := cat.Publish("walt", d); err != nil {
			t.Fatal(err)
		}
		if err := rig.a.Put(context.Background(), Replica{Dataset: d.Name, SizeBytes: d.SizeBytes, Version: 1}); err != nil {
			t.Fatalf("seeding dataset %d: %v", i, err)
		}
	}
	return rig
}

// converge runs planning rounds, advancing the clock to each next
// arrival, until the coordinator reports nothing to do.
func converge(t *testing.T, e sim.Clock, c *Coordinator) int {
	t.Helper()
	rounds := 0
	for {
		rounds++
		planned, _ := c.Round()
		if planned == 0 && c.InFlight() == 0 {
			return rounds
		}
		if at, ok := c.NextArrival(); ok {
			e.RunUntil(at)
		}
		if rounds > 50 {
			t.Fatal("coordinator did not converge in 50 rounds")
		}
	}
}

// replicaCount returns how many of the rig's stores hold dataset.
func (rig *coordRig) replicaCount(dataset string) int {
	n := 0
	for _, s := range []*Store{rig.a, rig.b, rig.c} {
		if _, err := s.Get(context.Background(), dataset); err == nil {
			n++
		}
	}
	return n
}

// TestCoordinatorReachesFactor is placement convergence: from masters on
// one site the coordinator brings every dataset to the factor, moving
// exactly one copy of each and accounting every byte to a link.
func TestCoordinatorReachesFactor(t *testing.T) {
	rig := newCoordRig(t, 11)
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 11}, rig.a, rig.b, rig.c)

	converge(t, rig.e, c)
	for _, d := range rig.cat.All() {
		if got := rig.replicaCount(d.Name); got != 2 {
			t.Errorf("%s has %d replicas, want 2", d.Name, got)
		}
	}
	st := c.Stats()
	// Exactly one copy of each dataset moved: 1+2+3 GB.
	if st.BytesMoved != 6*cgb {
		t.Errorf("BytesMoved = %d, want %d", st.BytesMoved, 6*cgb)
	}
	if st.Transfers != 3 {
		t.Errorf("Transfers = %d, want 3", st.Transfers)
	}
	if st.MaxInFlight < 1 || st.MaxInFlight > 3 {
		t.Errorf("MaxInFlight = %d", st.MaxInFlight)
	}
	if len(st.Links) == 0 {
		t.Error("no per-link stats recorded")
	}
	var linkBytes int64
	for _, l := range st.Links {
		linkBytes += l.Bytes
		if l.Flows == 0 {
			t.Errorf("link %s recorded bytes but no flows", l.Link)
		}
	}
	if linkBytes != st.BytesMoved {
		t.Errorf("per-link bytes %d != total %d", linkBytes, st.BytesMoved)
	}
	// Virtual time accrued: gigabytes over a 10G WAN take real seconds.
	if rig.e.Now() <= 0 {
		t.Error("transfers accrued no virtual time")
	}
}

// TestStopWithoutStartReturnsAtOnce: a coordinator driven by manual
// rounds has no loop to wait for, so Stop returns at once. A started one
// runs rounds and still stops.
func TestStopWithoutStartReturnsAtOnce(t *testing.T) {
	rig := newCoordRig(t, 31)
	manual := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 1, Seed: 31}, rig.a, rig.b)
	converge(t, rig.e, manual)
	start := time.Now()
	manual.Stop()
	manual.Stop()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Stop without Start took %v", d)
	}
	looped := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 1, Seed: 31}, rig.a, rig.b)
	looped.Start(time.Millisecond)
	for looped.Stats().Rounds == 0 {
		runtime.Gosched()
	}
	looped.Stop()
	looped.Stop()
}

// TestCoordinatorRepairsDetachedSite is the kill-one-site acceptance test:
// after convergence at factor 2, one site detaches; the coordinator must
// restore the factor on the remaining sites moving only the lost copies.
func TestCoordinatorRepairsDetachedSite(t *testing.T) {
	rig := newCoordRig(t, 12)
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 12}, rig.a, rig.b, rig.c)
	converge(t, rig.e, c)
	moved := c.Stats().BytesMoved

	// Kill whichever of B/C holds more: the repair traffic bound below is
	// exactly its holdings.
	dead := rig.b
	if rig.c.TotalBytes() > rig.b.TotalBytes() {
		dead = rig.c
	}
	lost, err := dead.ListSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var lostBytes int64
	for _, r := range lost.Changed {
		lostBytes += r.SizeBytes
	}
	if lostBytes == 0 {
		t.Fatal("detaching a site that held nothing proves nothing")
	}
	c.Detach(dead.Name())

	converge(t, rig.e, c)
	// No dataset is lost: each is back at the factor on the live sites.
	for _, d := range rig.cat.All() {
		n := 0
		for _, s := range []*Store{rig.a, rig.b, rig.c} {
			if s == dead {
				continue
			}
			if _, err := s.Get(context.Background(), d.Name); err == nil {
				n++
			}
		}
		if n != 2 {
			t.Errorf("%s has %d live replicas after repair, want 2", d.Name, n)
		}
	}
	// Bounded repair traffic: exactly the lost copies moved again.
	if repair := c.Stats().BytesMoved - moved; repair != lostBytes {
		t.Errorf("repair moved %d bytes, want exactly the %d lost", repair, lostBytes)
	}
}

// TestCoordinatorQuarantinesCorruptSource: a transfer from a corrupt
// master fails checksum verification on arrival; the bad copy moves but is
// dropped, not installed.
func TestCoordinatorQuarantinesCorruptSource(t *testing.T) {
	rig := newCoordRig(t, 13)
	// Corrupt the only copy of Alpha Survey.
	if err := rig.a.Put(context.Background(), Replica{Dataset: "Alpha Survey", SizeBytes: 1 * cgb, Version: 1, Checksum: "rot"}); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 13}, rig.a, rig.b, rig.c)
	converge(t, rig.e, c)

	// One copy of each dataset moved, 1+2+3 GB, and only the two healthy
	// ones installed: the 1 GB corrupt copy failed verification.
	if st := c.Stats(); st.Transfers != 2 || st.BytesMoved != 6*cgb {
		t.Fatalf("Transfers = %d, BytesMoved = %d; want 2 and %d", st.Transfers, st.BytesMoved, 6*cgb)
	}
	if _, err := rig.a.Get(context.Background(), "Alpha Survey"); !errors.Is(err, ErrNoReplica) {
		t.Error("corrupt source replica survived quarantine")
	}
	// Lost: the quarantined master was its only copy.
	if got := rig.replicaCount("Alpha Survey"); got != 0 {
		t.Errorf("corrupt dataset propagated to %d sites", got)
	}
	// The healthy datasets still reached their factor.
	for _, name := range []string{"Beta Genomes", "Gamma Imagery"} {
		if got := rig.replicaCount(name); got != 2 {
			t.Errorf("%s has %d replicas, want 2", name, got)
		}
	}
}

func TestCoordinatorStage(t *testing.T) {
	rig := newCoordRig(t, 14)
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 1, Seed: 14}, rig.a, rig.b, rig.c)

	st, err := c.Stage("Gamma Imagery", "site-c")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "staging" || st.From != "site-a" || st.ETASecs <= 0 {
		t.Fatalf("Stage = %+v", st)
	}
	// Before the flow arrives the replica is absent; repeated stages
	// report the same in-flight transfer rather than planning another.
	again, err := c.Stage("Gamma Imagery", "site-c")
	if err != nil || again.State != "staging" {
		t.Fatalf("second Stage = %+v, %v", again, err)
	}
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", c.InFlight())
	}
	at, _ := c.NextArrival()
	rig.e.RunUntil(at)
	if c.completeArrived(c.engine.Now()) != 1 {
		t.Fatal("no install after arrival")
	}
	if _, err := rig.c.Get(context.Background(), "Gamma Imagery"); err != nil {
		t.Fatalf("staged replica missing: %v", err)
	}
	done, err := c.Stage("Gamma Imagery", "site-c")
	if err != nil || done.State != "present" {
		t.Fatalf("post-arrival Stage = %+v, %v", done, err)
	}

	if _, err := c.Stage("No Such Set", "site-c"); err == nil {
		t.Error("staging an unknown dataset succeeded")
	}
	if _, err := c.Stage("Gamma Imagery", "site-x"); err == nil {
		t.Error("staging to an unknown site succeeded")
	}
}

// flakyAPI wraps a store, failing List for a programmed set of rounds —
// a site that misses one observation without actually being gone.
type flakyAPI struct {
	*Store
	calls     int
	failCalls map[int]bool // 1-based List call numbers that error
}

func (f *flakyAPI) ListSince(ctx context.Context, since int64) (Delta, error) {
	f.calls++
	if f.failCalls[f.calls] {
		return Delta{}, errors.New("transient observe failure")
	}
	return f.Store.ListSince(ctx, since)
}

// TestCoordinatorGraceSuppressesFlapRepairs: one missed observation of a
// healthy holder must not trigger duplicate repairs — inside the grace
// window the site's last-known replicas keep counting.
func TestCoordinatorGraceSuppressesFlapRepairs(t *testing.T) {
	rig := newCoordRig(t, 16)
	flaky := &flakyAPI{Store: rig.b, failCalls: map[int]bool{}}
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 16}, rig.a, flaky, rig.c)
	converge(t, rig.e, c)
	moved := c.Stats().BytesMoved

	// The next observation of site-b fails once, then recovers.
	flaky.failCalls[flaky.calls+1] = true
	for i := 0; i < 3; i++ {
		if planned, _ := c.Round(); planned != 0 {
			t.Fatalf("flap round %d planned %d duplicate transfers", i, planned)
		}
	}
	if got := c.Stats().BytesMoved; got != moved {
		t.Fatalf("flap moved %d extra bytes", got-moved)
	}
	// Every dataset still sits at exactly the factor: nothing drained.
	for _, d := range rig.cat.All() {
		if got := rig.replicaCount(d.Name); got != 2 {
			t.Errorf("%s has %d replicas after the flap, want 2", d.Name, got)
		}
	}
}

// TestCoordinatorDrainsExcessReplicas: a dataset over its factor is
// drained back down — never from the anchor (master) site.
func TestCoordinatorDrainsExcessReplicas(t *testing.T) {
	rig := newCoordRig(t, 17)
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 1, Seed: 17}, rig.a, rig.b, rig.c)
	converge(t, rig.e, c) // factor 1: masters on site-a already satisfy it

	// Two stray extra copies appear (an operator's manual put, or a site
	// back from a long outage).
	for _, s := range []*Store{rig.b, rig.c} {
		if err := s.Put(context.Background(), Replica{Dataset: "Alpha Survey", SizeBytes: 1 * cgb, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, rig.e, c)
	if got := rig.replicaCount("Alpha Survey"); got != 1 {
		t.Fatalf("Alpha Survey at %d replicas after drain, want 1", got)
	}
	// The surviving copy is the anchor's master.
	if _, err := rig.a.Get(context.Background(), "Alpha Survey"); err != nil {
		t.Fatal("drain removed the anchor's master copy")
	}
}

// TestDrainSparesStagedReplicas: a deliberately staged replica lifts a
// dataset above its factor, and the drain must leave it alone — the user
// parked it next to their compute.
func TestDrainSparesStagedReplicas(t *testing.T) {
	rig := newCoordRig(t, 19)
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 1, Seed: 19}, rig.a, rig.b, rig.c)
	converge(t, rig.e, c)

	st, err := c.Stage("Beta Genomes", "site-c")
	if err != nil {
		t.Fatal(err)
	}
	rig.e.RunFor(sim.Duration(st.ETASecs) + sim.Second)
	converge(t, rig.e, c) // rounds see 2 > factor 1; the pin protects it
	if _, err := rig.c.Get(context.Background(), "Beta Genomes"); err != nil {
		t.Fatalf("drain removed the staged replica: %v", err)
	}
	if got := rig.replicaCount("Beta Genomes"); got != 2 {
		t.Fatalf("Beta Genomes at %d replicas, want the master and the staged copy", got)
	}
}

// TestStageUnreachableDestinationErrors: staging onto a site whose plane
// is down must error, not return an ETA for a transfer that can never
// install.
func TestStageUnreachableDestinationErrors(t *testing.T) {
	rig := newCoordRig(t, 18)
	ghost := unreachableAPI{name: "site-ghost", loc: simnet.SiteLVOC}
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 1, Seed: 18}, rig.a, rig.b, ghost)
	if _, err := c.Stage("Alpha Survey", "site-ghost"); err == nil {
		t.Fatal("staging to an unreachable site returned an ETA")
	}
	if c.InFlight() != 0 {
		t.Fatalf("unreachable stage left %d transfers in flight", c.InFlight())
	}
}

// unreachableAPI fails every call — a detached-but-still-configured site.
type unreachableAPI struct{ name, loc string }

func (u unreachableAPI) Name() string { return u.name }
func (u unreachableAPI) Loc() string  { return u.loc }
func (u unreachableAPI) Get(context.Context, string) (Replica, error) {
	return Replica{}, errors.New("unreachable")
}
func (u unreachableAPI) Put(context.Context, Replica) error   { return errors.New("unreachable") }
func (u unreachableAPI) Delete(context.Context, string) error { return errors.New("unreachable") }
func (u unreachableAPI) ListSince(context.Context, int64) (Delta, error) {
	return Delta{}, errors.New("unreachable")
}

// TestCoordinatorPlacesAroundUnreachableSites: a site that answers
// nothing is left out of placement, and the factor is met on the
// reachable sites.
func TestCoordinatorPlacesAroundUnreachableSites(t *testing.T) {
	rig := newCoordRig(t, 15)
	ghost := unreachableAPI{name: "site-ghost", loc: simnet.SiteLVOC}
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 15}, rig.a, rig.b, ghost)
	converge(t, rig.e, c)

	for _, d := range rig.cat.All() {
		if got := rig.replicaCount(d.Name); got != 2 {
			t.Errorf("%s has %d replicas, want 2", d.Name, got)
		}
	}
}

// TestCoordinatorDeterministic pins the whole data plane to the seed: two
// rigs with the same seed produce identical stats and placements.
func TestCoordinatorDeterministic(t *testing.T) {
	run := func() (Stats, []PlacementRow, sim.Time) {
		rig := newCoordRig(t, 42)
		c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 3, Seed: 42}, rig.a, rig.b, rig.c)
		converge(t, rig.e, c)
		return c.Stats(), c.Placement(), rig.e.Now()
	}
	s1, p1, t1 := run()
	s2, p2, t2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("placement diverged:\n%+v\n%+v", p1, p2)
	}
	if t1 != t2 {
		t.Errorf("virtual time diverged: %v vs %v", t1, t2)
	}
	// Factor 3 over 3 sites: everything everywhere.
	for _, row := range p1 {
		if len(row.Sites) != 3 {
			t.Errorf("%s placed on %v, want all three sites", row.Dataset, row.Sites)
		}
	}
}

// deltaSpy wraps a store and records every since value the coordinator's
// observation passes.
type deltaSpy struct {
	*Store
	mu     sync.Mutex
	sinces []int64
}

func (d *deltaSpy) ListSince(ctx context.Context, since int64) (Delta, error) {
	d.mu.Lock()
	d.sinces = append(d.sinces, since)
	d.mu.Unlock()
	return d.Store.ListSince(ctx, since)
}

// TestCoordinatorObservesViaDeltas: after the first round's snapshot, the
// coordinator's observation passes each site's last revision back — rounds
// read churn, not inventories — and converges to the same placement.
func TestCoordinatorObservesViaDeltas(t *testing.T) {
	rig := newCoordRig(t, 23)
	// Spy on the master site: it holds replicas from the first round, so
	// every observation after the snapshot must carry a nonzero revision.
	spy := &deltaSpy{Store: rig.a}
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 23}, spy, rig.b, rig.c)
	converge(t, rig.e, c)

	for _, d := range rig.cat.All() {
		if got := rig.replicaCount(d.Name); got != 2 {
			t.Errorf("%s at %d replicas after delta-driven convergence, want 2", d.Name, got)
		}
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.sinces) < 2 {
		t.Fatalf("observation called ListSince %d times", len(spy.sinces))
	}
	if spy.sinces[0] != 0 {
		t.Fatalf("first observation passed since=%d, want 0", spy.sinces[0])
	}
	for i, since := range spy.sinces[1:] {
		if since <= 0 {
			t.Fatalf("round %d re-read the full inventory (since=%d) despite an answered prior round", i+2, since)
		}
	}
}

// blockingAPI wraps a store with a Put that parks until released — a
// destination plane mid-HTTP-round-trip.
type blockingAPI struct {
	*Store
	entered chan struct{} // closed when the first Put starts
	release chan struct{} // Put returns when this closes
	once    sync.Once
}

func (b *blockingAPI) Put(ctx context.Context, r Replica) error {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.Store.Put(ctx, r)
}

// TestArrivalInstallDoesNotHoldCoordinatorLock is the lock-hazard
// regression test: while a destination's Put is in flight, every other
// coordinator surface (InFlight, NextArrival, Placement, Stats) must stay
// responsive — the remote install runs outside c.mu.
func TestArrivalInstallDoesNotHoldCoordinatorLock(t *testing.T) {
	rig := newCoordRig(t, 29)
	slow := &blockingAPI{Store: rig.b, entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 2, Seed: 29}, rig.a, slow, rig.c)

	// Plan the first transfers, then advance past every arrival so the
	// next install pass has work to do.
	c.Round()
	at, ok := c.NextArrival()
	if !ok {
		t.Fatal("round planned no transfers")
	}
	rig.e.RunUntil(at + sim.Time(sim.Hour))

	polled := make(chan int)
	go func() { polled <- c.completeArrived(c.engine.Now()) }()
	<-slow.entered // an install is now parked inside the slow Put

	// The coordinator lock must be free while the Put blocks.
	responsive := make(chan struct{})
	go func() {
		c.InFlight()
		c.NextArrival()
		c.Stats()
		close(responsive)
	}()
	select {
	case <-responsive:
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator surfaces blocked behind an in-flight destination Put")
	}

	close(slow.release)
	if n := <-polled; n == 0 {
		t.Fatal("the install pass completed no arrivals")
	}
}

// TestShardedPricingDeterministicAndConverges: replication prices on the
// coordinator's one RNG stream at every shard count. A coordinator on a
// bare engine and one on the anchor of a K=1 or a K=4 kernel converge to
// equal Stats, every link row included, at the same virtual time. At
// factor 3 over the OSDC WAN the flows retransmit, so a pricing path that
// drew differently at some K would show here.
func TestShardedPricingDeterministicAndConverges(t *testing.T) {
	type outcome struct {
		stats Stats
		at    sim.Time
	}
	run := func(set *sim.ShardSet) outcome {
		var rig *coordRig
		var clock sim.Clock
		if set == nil {
			rig = newCoordRig(t, 11)
			clock = rig.e
		} else {
			rig, clock = newCoordRigOn(t, set.Anchor()), set
		}
		c := NewCoordinator(rig.e, rig.nw, rig.cat, Options{Factor: 3, Seed: 11}, rig.a, rig.b, rig.c)
		converge(t, clock, c)
		for _, d := range rig.cat.All() {
			if got := rig.replicaCount(d.Name); got != 3 {
				t.Fatalf("%s has %d replicas, want 3", d.Name, got)
			}
		}
		return outcome{c.Stats(), clock.Now()}
	}

	want := run(nil)
	if want.stats.Retransmits == 0 {
		t.Fatal("no flow retransmitted: the rig cannot tell two loss samples apart")
	}
	for _, k := range []int{1, 4} {
		if got := run(sim.NewShardSet(11, k)); !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d pricing diverged from the bare engine:\nK=%d: %+v\nbare: %+v", k, k, got, want)
		}
	}
}
