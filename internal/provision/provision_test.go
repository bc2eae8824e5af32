package provision

import (
	"testing"

	"osdc/internal/sim"
)

func TestSingleServerPipelinePhases(t *testing.T) {
	e := sim.NewEngine(4)
	p := NewPipeline(e, DefaultDurations(), 16, 0)
	s := &Server{Name: "n1", Role: RoleCompute}
	var ready *Server
	var readyAt sim.Time
	p.Provision(s, func(x *Server) { ready, readyAt = x, e.Now() })
	e.Run()
	if ready == nil || s.Phase != PhaseReady {
		t.Fatalf("server not ready: phase=%s", s.Phase)
	}
	// All compute recipes converged.
	want := len(RunList(RoleCompute))
	if len(s.Applied) != want {
		t.Fatalf("applied %d recipes, want %d", len(s.Applied), want)
	}
	// One server should take ~1.5 h, certainly under 3 h.
	dur := sim.Duration(readyAt)
	if dur <= 0 || dur > 3*sim.Hour {
		t.Fatalf("single server took %v", sim.Time(dur))
	}
}

func TestRolesGetDifferentRunLists(t *testing.T) {
	mgmt := RunList(RoleManagement)
	comp := RunList(RoleCompute)
	stor := RunList(RoleStorage)
	has := func(rs []Recipe, name string) bool {
		for _, r := range rs {
			if r.Name == name {
				return true
			}
		}
		return false
	}
	if !has(mgmt, "chef-server") || has(comp, "chef-server") {
		t.Fatal("management run-list wrong")
	}
	if !has(stor, "glusterfs-server") || !has(comp, "glusterfs-client") {
		t.Fatal("storage/compute run-lists wrong")
	}
	for _, rs := range [][]Recipe{mgmt, comp, stor} {
		if !has(rs, "nagios-nrpe") {
			t.Fatal("every node must run the monitoring agent")
		}
	}
}

func TestAutomatedRackUnderADay(t *testing.T) {
	// The paper's target: "taking a full rack from bare metal to a compute
	// or storage cloud in much less than a day". Rack = 39 servers (§9.1).
	e := sim.NewEngine(4)
	p := NewPipeline(e, DefaultDurations(), 16, 0.02)
	res := ProvisionRack(e, p, 39)
	if len(res.Servers) != 39 {
		t.Fatalf("servers = %d", len(res.Servers))
	}
	for _, s := range res.Servers {
		if s.Phase != PhaseReady {
			t.Fatalf("%s not ready: %s", s.Name, s.Phase)
		}
	}
	if res.Duration >= sim.Day {
		t.Fatalf("automated rack took %v, want < 1 day", sim.Time(res.Duration))
	}
	if res.Duration < 2*sim.Hour {
		t.Fatalf("automated rack took %v — implausibly fast", sim.Time(res.Duration))
	}
}

func TestManualRackOverAWeek(t *testing.T) {
	// The paper: the first manual installation "took over a week".
	d := ManualRackTime(DefaultManual(), 39)
	if d <= sim.Week {
		t.Fatalf("manual rack = %v, want > 1 week", sim.Time(d))
	}
	if d > 4*sim.Week {
		t.Fatalf("manual rack = %v — beyond plausibility", sim.Time(d))
	}
}

// TestRackHaltsAtLastReady: ProvisionRack halts the engine at the last
// node's ready time, so it fires every pipeline event and no later one.
func TestRackHaltsAtLastReady(t *testing.T) {
	e := sim.NewEngine(4)
	p := NewPipeline(e, DefaultDurations(), 16, 0.02)
	later := false
	e.At(sim.Time(sim.Week), func() { later = true })
	res := ProvisionRack(e, p, 39)

	// Only the later event is left, so the clock stands at the last
	// pipeline event: the last node's ready time.
	if later || e.Pending() != 1 || e.Now() != sim.Time(res.Duration) {
		t.Fatalf("after the rack: later fired %v, %d pending, clock %v; want false, 1, %v",
			later, e.Pending(), e.Now(), sim.Time(res.Duration))
	}
	if e.Run(); !later {
		t.Fatal("the later event was lost")
	}
}

func TestTransientFailuresRetryToCompletion(t *testing.T) {
	e := sim.NewEngine(77)
	p := NewPipeline(e, DefaultDurations(), 16, 0.15) // very flaky hardware
	res := ProvisionRack(e, p, 20)
	for _, s := range res.Servers {
		if s.Phase != PhaseReady {
			t.Fatalf("%s stuck at %s", s.Name, s.Phase)
		}
	}
	if res.Retries == 0 {
		t.Fatal("15% failure rate produced no retries")
	}
}

func TestInstallSlotLimitSerializes(t *testing.T) {
	run := func(slots int) sim.Duration {
		e := sim.NewEngine(4)
		p := NewPipeline(e, DefaultDurations(), slots, 0)
		return ProvisionRack(e, p, 39).Duration
	}
	narrow := run(2)
	wide := run(32)
	if narrow <= wide {
		t.Fatalf("2 slots (%v) not slower than 32 slots (%v)", narrow, wide)
	}
}

func TestManagementNodeFirst(t *testing.T) {
	e := sim.NewEngine(4)
	p := NewPipeline(e, DefaultDurations(), 16, 0)
	res := ProvisionRack(e, p, 10)
	var mgmt *Server
	for _, s := range res.Servers {
		if s.Role == RoleManagement {
			mgmt = s
		}
	}
	if mgmt == nil {
		t.Fatal("no management node")
	}
	// Alone, each role's server takes its own time; the workers start
	// only once the management node is ready, so the rack takes at least
	// the two in sequence.
	alone := func(role Role) sim.Duration {
		e := sim.NewEngine(4)
		var at sim.Time
		NewPipeline(e, DefaultDurations(), 16, 0).Provision(&Server{Role: role}, func(*Server) { at = e.Now() })
		e.Run()
		return sim.Duration(at)
	}
	if first := alone(RoleManagement) + min(alone(RoleCompute), alone(RoleStorage)); res.Duration < first {
		t.Fatalf("rack took %v, under the %v of the management node then a worker", res.Duration, first)
	}
}

func TestTinyRackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := sim.NewEngine(1)
	ProvisionRack(e, NewPipeline(e, DefaultDurations(), 4, 0), 1)
}
