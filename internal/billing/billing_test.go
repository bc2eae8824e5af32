package billing

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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
	b := New(e, []cloudapi.CloudAPI{cloudapi.NewLocal(c)})
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
}

func TestMonthlyCycleResetsUsage(t *testing.T) {
	e, c, b := setup(t)
	if _, err := c.Launch("alice", "vm", "m1.xlarge", ""); err != nil { // 8 cores
		t.Fatal(err)
	}
	e.RunFor(DaysPerCycle*sim.Day - sim.Hour)
	// 8 cores × 24 h × 30 d = 5760 core-hours, less the final hour.
	if got := b.CurrentUsage("alice").CoreHours(); math.Abs(got-5752) > 20 {
		t.Fatalf("core-hours before the cycle closes = %v, want ~5752", got)
	}
	if b.Cycle() != 1 {
		t.Fatalf("cycle = %d, want 1", b.Cycle())
	}
	e.RunFor(sim.Day + sim.Hour)
	// Accumulators reset for the new cycle.
	if b.CurrentUsage("alice").CoreHours() > 200 {
		t.Fatal("usage not reset after the cycle closed")
	}
	if b.Cycle() != 2 {
		t.Fatalf("cycle = %d, want 2", b.Cycle())
	}
}

func TestBillingCreatesIncentiveToRelease(t *testing.T) {
	// The paper's lesson: metering discourages holding idle VMs. A hoarder
	// who keeps an 8-core VM all month is metered ~15× a user who releases
	// after two days of work.
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
	e.RunFor(27 * sim.Day) // the cycle is still open
	hoarder, sharer := b.CurrentUsage("hoarder").CoreHours(), b.CurrentUsage("sharer").CoreHours()
	if hoarder < 10*sharer {
		t.Fatalf("hoarder metered %v core-hours vs sharer %v; metering not incentivizing", hoarder, sharer)
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
func (f failingCloud) UsageSince(context.Context, int64) (cloudapi.UsageDelta, error) {
	return cloudapi.UsageDelta{}, fmt.Errorf("site %s unreachable", f.name)
}

func TestPollErrorsBrokenDownPerCloud(t *testing.T) {
	e := sim.NewEngine(3)
	good := iaas.NewCloud(e, "healthy", "openstack", "chicago")
	good.AddRack("r", 2)
	b := New(e, []cloudapi.CloudAPI{
		cloudapi.NewLocal(good),
		failingCloud{name: "down-site"},
	})
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

// hungSite is a site that accepts every request and never answers. Its
// handler signals entered when a request arrives and cancelled when the
// client cancels it.
type hungSite struct {
	url                string
	entered, cancelled chan struct{}
}

func startHungSite(t *testing.T) *hungSite {
	h := &hungSite{entered: make(chan struct{}, 64), cancelled: make(chan struct{}, 64)}
	signal := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		signal(h.entered)
		<-r.Context().Done()
		signal(h.cancelled)
	}))
	t.Cleanup(srv.Close)
	h.url = srv.URL
	return h
}

// TestAbandonedPollSurfacesAsPollError: a site that never answers is
// counted in PollErrorsByCloud while the healthy site keeps accruing —
// the poll cancels the request at its deadline, and the site sees it
// cancelled, instead of stalling the clock goroutine behind the hung
// transport.
func TestAbandonedPollSurfacesAsPollError(t *testing.T) {
	e := sim.NewEngine(3)
	good := iaas.NewCloud(e, "healthy", "openstack", "chicago")
	good.AddRack("r", 2)
	good.SetQuota("alice", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	if _, err := good.Launch("alice", "vm", "m1.small", ""); err != nil {
		t.Fatal(err)
	}
	hung := startHungSite(t)

	b := New(e, []cloudapi.CloudAPI{
		cloudapi.NewLocal(good),
		cloudapi.NewRemote("hung-site", "openstack", hung.url, nil),
	})
	b.deadline = 5 * time.Millisecond
	e.RunFor(5 * sim.Minute)
	b.Stop()

	per := b.PollErrorsByCloud()
	if per["healthy"] != 0 {
		t.Fatalf("healthy cloud charged %d poll errors", per["healthy"])
	}
	if per["hung-site"] < 4 {
		t.Fatalf("hung-site cancelled polls = %d, want ~5", per["hung-site"])
	}
	if u := b.CurrentUsage("alice"); u.CoreMinutes < 4 { // one core, sampled each minute
		t.Fatalf("healthy accrual stalled behind the hung site: %v core-minutes", u.CoreMinutes)
	}
	select {
	case <-hung.cancelled:
	case <-time.After(cloudapi.PollDeadline):
		t.Fatal("the hung site never saw a poll's request cancelled")
	}
}

// TestStopCutsPollInFlight: under a driver at 86 400× a minute poll fires
// every millisecond of wall time, and a poll of a site that never answers
// waits out cloudapi.PollDeadline. Teardown — the biller, then the clock —
// returns in well under that deadline: Stop cancels the poll in flight,
// so the driver's tick ends at once.
func TestStopCutsPollInFlight(t *testing.T) {
	e := sim.NewEngine(3)
	hung := startHungSite(t)
	b := New(e, []cloudapi.CloudAPI{cloudapi.NewRemote("hung-site", "openstack", hung.url, nil)})
	driver := sim.StartDriver(e, 86400, 5*time.Millisecond)
	<-hung.entered // a poll is in flight on the driver's goroutine

	start := time.Now()
	b.Stop()
	driver.Stop()
	if took := time.Since(start); took > cloudapi.PollDeadline/10 {
		t.Fatalf("teardown took %v with a poll in flight, want well under the %v poll deadline", took, cloudapi.PollDeadline)
	}
	if per := b.PollErrorsByCloud(); per["hung-site"] == 0 {
		t.Fatal("the cut poll was not counted as an error")
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
// fan-out's per-run workers, its per-task deadline contexts and the
// per-user accrual, never per-poll result slices or snapshots.
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
	b := New(e, clouds)
	defer b.Stop()           // a stopped biller's polls are cancelled: stop after measuring
	e.RunFor(3 * sim.Minute) // boots settle; the first polls take the full snapshots
	const bound = 14
	if allocs := testing.AllocsPerRun(200, b.pollVMs); allocs > bound {
		t.Fatalf("steady-state pollVMs = %v allocs, want <= %d", allocs, bound)
	}
}
