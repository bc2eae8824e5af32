package billing

import (
	"fmt"
	"math"
	"testing"
	"time"

	"osdc/internal/cloudapi"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *iaas.Cloud, *Biller) {
	t.Helper()
	e := sim.NewEngine(21)
	c := iaas.NewCloud(e, "adler", "openstack", "chicago")
	c.AddRack("r", 8)
	c.SetQuota("alice", iaas.Quota{MaxInstances: 50, MaxCores: 400})
	b := New(e, DefaultRates(), []cloudapi.CloudAPI{cloudapi.NewLocal(c)}, nil)
	return e, c, b
}

func TestCoreHourAccumulation(t *testing.T) {
	e, c, b := setup(t)
	// 4-core VM for 10 hours.
	inst, err := c.Launch("alice", "vm", "m1.large", "")
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(10 * sim.Hour)
	if err := c.Terminate("alice", inst.ID); err != nil {
		t.Fatal(err)
	}
	u := b.CurrentUsage("alice")
	// Per-minute sampling of 4 cores for 600 minutes = 2400 core-minutes.
	if math.Abs(u.CoreHours()-40) > 0.5 {
		t.Fatalf("core-hours = %v, want ~40", u.CoreHours())
	}
	if u.Samples < 590 || u.Samples > 610 {
		t.Fatalf("samples = %d, want ~600 (per-minute polling)", u.Samples)
	}
}

func TestStorageDailySampling(t *testing.T) {
	e := sim.NewEngine(2)
	stored := int64(10) << 30 // 10 GB constant
	b := New(e, DefaultRates(), nil, func() map[string]int64 {
		return map[string]int64{"bob": stored}
	})
	e.RunFor(10 * sim.Day)
	u := b.CurrentUsage("bob")
	if math.Abs(u.GBDays-100) > 1 {
		t.Fatalf("GB-days = %v, want ~100", u.GBDays)
	}
}

func TestMonthlyInvoiceCut(t *testing.T) {
	e, c, b := setup(t)
	if _, err := c.Launch("alice", "vm", "m1.xlarge", ""); err != nil { // 8 cores
		t.Fatal(err)
	}
	e.RunFor(31 * sim.Day)
	invs := b.Invoices("alice")
	if len(invs) != 1 {
		t.Fatalf("invoices = %d, want 1 after a 30-day cycle", len(invs))
	}
	inv := invs[0]
	// 8 cores × 24 h × 30 d = 5760 core-hours.
	if math.Abs(inv.CoreHours-5760) > 20 {
		t.Fatalf("invoice core-hours = %v, want ~5760", inv.CoreHours)
	}
	wantCompute := (inv.CoreHours - 100) * DefaultRates().PerCoreHour
	if math.Abs(inv.Compute-wantCompute) > 0.01 {
		t.Fatalf("compute charge = %v, want %v", inv.Compute, wantCompute)
	}
	// Accumulators reset for the new cycle.
	if b.CurrentUsage("alice").CoreHours() > 200 {
		t.Fatal("usage not reset after invoice")
	}
	if b.Cycle() != 2 {
		t.Fatalf("cycle = %d, want 2", b.Cycle())
	}
}

func TestFreeTierCoversSmallUsage(t *testing.T) {
	e, c, b := setup(t)
	inst, err := c.Launch("alice", "vm", "m1.small", "") // 1 core
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(50 * sim.Hour) // 50 core-hours < 100 free
	if err := c.Terminate("alice", inst.ID); err != nil {
		t.Fatal(err)
	}
	e.RunFor(31*sim.Day - 50*sim.Hour)
	inv := b.Invoices("alice")[0]
	if inv.Compute != 0 {
		t.Fatalf("small usage billed %v, want 0 (free tier)", inv.Compute)
	}
	if inv.FreeCredit <= 0 {
		t.Fatal("free credit not recorded")
	}
}

func TestBillingCreatesIncentiveToRelease(t *testing.T) {
	// The paper's lesson: metering discourages holding idle VMs. A hoarder
	// who keeps an 8-core VM all month pays ~12× a user who releases after
	// two days of work.
	e, c, b := setup(t)
	c.SetQuota("hoarder", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	c.SetQuota("sharer", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	if _, err := c.Launch("hoarder", "idle", "m1.xlarge", ""); err != nil {
		t.Fatal(err)
	}
	sh, err := c.Launch("sharer", "job", "m1.xlarge", "")
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(2 * sim.Day)
	if err := c.Terminate("sharer", sh.ID); err != nil {
		t.Fatal(err)
	}
	e.RunFor(29 * sim.Day)
	var hoarder, sharer Invoice
	for _, inv := range b.Invoices("") {
		switch inv.User {
		case "hoarder":
			hoarder = inv
		case "sharer":
			sharer = inv
		}
	}
	if hoarder.Total < 10*sharer.Total {
		t.Fatalf("hoarder pays %v vs sharer %v; metering not incentivizing", hoarder.Total, sharer.Total)
	}
}

func TestPollsCounted(t *testing.T) {
	e, _, b := setup(t)
	e.RunFor(sim.Hour)
	if b.Polls < 59 || b.Polls > 61 {
		t.Fatalf("polls in 1 h = %d, want ~60", b.Polls)
	}
}

// failingCloud is a CloudAPI whose usage samples always fail — an
// unreachable remote site as the pollers see it.
type failingCloud struct {
	cloudapi.CloudAPI
	name string
}

func (f failingCloud) Name() string { return f.name }
func (f failingCloud) Usage() (cloudapi.Usage, error) {
	return cloudapi.Usage{}, fmt.Errorf("site %s unreachable", f.name)
}
func (f failingCloud) UsageSince(int64) (cloudapi.UsageDelta, error) {
	return cloudapi.UsageDelta{}, fmt.Errorf("site %s unreachable", f.name)
}

func TestPollErrorsBrokenDownPerCloud(t *testing.T) {
	e := sim.NewEngine(3)
	good := iaas.NewCloud(e, "healthy", "openstack", "chicago")
	good.AddRack("r", 2)
	b := New(e, DefaultRates(), []cloudapi.CloudAPI{
		cloudapi.NewLocal(good),
		failingCloud{name: "down-site"},
	}, nil)
	e.RunFor(10 * sim.Minute)
	b.Stop()

	per := b.PollErrorsByCloud()
	if per["healthy"] != 0 {
		t.Fatalf("healthy cloud charged %d poll errors", per["healthy"])
	}
	if per["down-site"] < 9 || per["down-site"] != b.Polls {
		t.Fatalf("down-site errors = %d (polls %d), want ~10 and equal", per["down-site"], b.Polls)
	}
}

func TestStopHaltsPolling(t *testing.T) {
	e, _, b := setup(t)
	e.RunFor(10 * sim.Minute)
	b.Stop()
	before := b.Polls
	e.RunFor(10 * sim.Minute)
	if b.Polls != before {
		t.Fatal("polling continued after Stop")
	}
}

// hangingCloud is a CloudAPI whose usage samples block until released — a
// hung remote site that never answers, as opposed to one that errors fast.
type hangingCloud struct {
	cloudapi.CloudAPI
	name    string
	release chan struct{}
}

func (h *hangingCloud) Name() string { return h.name }
func (h *hangingCloud) Usage() (cloudapi.Usage, error) {
	<-h.release
	return cloudapi.Usage{}, nil
}
func (h *hangingCloud) UsageSince(int64) (cloudapi.UsageDelta, error) {
	<-h.release
	return cloudapi.UsageDelta{}, nil
}

// TestAbandonedPollSurfacesAsPollError: a site whose Usage hangs past the
// per-poll deadline is counted in PollErrorsByCloud while the healthy site
// keeps accruing — the poll abandons the wait instead of stalling the
// clock goroutine behind the hung transport.
func TestAbandonedPollSurfacesAsPollError(t *testing.T) {
	e := sim.NewEngine(3)
	good := iaas.NewCloud(e, "healthy", "openstack", "chicago")
	good.AddRack("r", 2)
	good.SetQuota("alice", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	if _, err := good.Launch("alice", "vm", "m1.small", ""); err != nil {
		t.Fatal(err)
	}
	hung := &hangingCloud{name: "hung-site", release: make(chan struct{})}
	t.Cleanup(func() { close(hung.release) }) // drain the abandoned tasks

	b := New(e, DefaultRates(), []cloudapi.CloudAPI{
		cloudapi.NewLocal(good),
		hung,
	}, nil)
	b.deadline = 5 * time.Millisecond
	e.RunFor(5 * sim.Minute)
	b.Stop()

	per := b.PollErrorsByCloud()
	if per["healthy"] != 0 {
		t.Fatalf("healthy cloud charged %d poll errors", per["healthy"])
	}
	if per["hung-site"] < 4 {
		t.Fatalf("hung-site abandoned polls = %d, want ~5", per["hung-site"])
	}
	if u := b.CurrentUsage("alice"); u.Samples < 4 {
		t.Fatalf("healthy accrual stalled behind the hung site: %d samples", u.Samples)
	}
}

// TestTerminatedUserStopsAccruing is the delta-path regression: a user
// whose last instance terminates must be *removed* from the poller's
// maintained snapshot by the next delta — silently retaining the entry
// would keep accruing core-minutes for a VM that no longer exists.
func TestTerminatedUserStopsAccruing(t *testing.T) {
	e, c, b := setup(t)
	c.SetQuota("bob", iaas.Quota{MaxInstances: 4, MaxCores: 16})
	inst, err := c.Launch("bob", "vm", "m1.large", "") // 4 cores
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(1 * sim.Hour)
	if err := c.Terminate("bob", inst.ID); err != nil {
		t.Fatal(err)
	}
	at := b.CurrentUsage("bob")
	e.RunFor(10 * sim.Hour)
	after := b.CurrentUsage("bob")
	if after.CoreMinutes != at.CoreMinutes {
		t.Fatalf("bob kept accruing after terminate: %v → %v core-minutes",
			at.CoreMinutes, after.CoreMinutes)
	}
	if math.Abs(after.CoreHours()-4) > 0.5 {
		t.Fatalf("bob's hour of 4 cores = %v core-hours, want ~4", after.CoreHours())
	}
	b.Stop()
}

// TestPollVMsSteadyStateAllocs pins the poller's reused buffers: a
// steady-state minute poll over two unchanged clouds allocates only the
// fan-out's per-run goroutine plumbing and the per-user accrual, never
// per-poll result slices or snapshots.
func TestPollVMsSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(4)
	var clouds []cloudapi.CloudAPI
	for _, name := range []string{"adler", "sullivan"} {
		c := iaas.NewCloud(e, name, "openstack", "chicago")
		c.AddRack("r", 4)
		c.SetQuota("alice", iaas.Quota{MaxInstances: 4, MaxCores: 16})
		if _, err := c.Launch("alice", "vm", "m1.large", ""); err != nil {
			t.Fatal(err)
		}
		clouds = append(clouds, cloudapi.NewLocal(c))
	}
	b := New(e, DefaultRates(), clouds, nil)
	e.RunFor(3 * sim.Minute) // boots settle; the first polls take the full snapshots
	b.Stop()
	const bound = 14
	if allocs := testing.AllocsPerRun(200, b.pollVMs); allocs > bound {
		t.Fatalf("steady-state pollVMs = %v allocs, want <= %d", allocs, bound)
	}
}
