package transport

import (
	"testing"

	"osdc/internal/sim"
)

// stubCtrl is a fixed-rate controller with a decrease-on-loss law, enough
// to exercise the shared-bottleneck accounting deterministically.
type stubCtrl struct {
	name     string
	interval sim.Duration
	pps      float64
	losses   int
}

func (c *stubCtrl) Name() string           { return c.name }
func (c *stubCtrl) Interval() sim.Duration { return c.interval }
func (c *stubCtrl) RatePps() float64       { return c.pps }
func (c *stubCtrl) OnInterval(loss bool) {
	if loss {
		c.losses++
		c.pps *= 0.9
	} else {
		c.pps *= 1.01
	}
}

func testPath() Path {
	return Path{BandwidthBps: 1e9, RTT: 0.1, Loss: 0, MSS: DefaultMSS}
}

func TestSharedFlowsSplitBottleneckFairly(t *testing.T) {
	path := testPath()
	const n = 4
	ctrls := make([]Controller, n)
	sizes := make([]int64, n)
	for i := range ctrls {
		ctrls[i] = &stubCtrl{name: "stub", interval: 0.01, pps: path.PacketsPerSec()}
		sizes[i] = 512 << 20
	}
	results := SimulateShared(sim.NewRNG(2), path, ctrls, sizes, Caps{})
	var aggBps float64
	for _, r := range results {
		aggBps += r.ThroughputBps()
	}
	if aggBps > path.BandwidthBps*1.02 {
		t.Fatalf("aggregate %.0f mbit/s exceeds the %.0f mbit/s bottleneck", aggBps/1e6, path.BandwidthBps/1e6)
	}
	if aggBps < path.BandwidthBps*0.5 {
		t.Fatalf("aggregate %.0f mbit/s badly underuses the bottleneck", aggBps/1e6)
	}
	if f := JainFairness(results); f < 0.9 {
		t.Fatalf("fairness %.3f for identical flows, want ~1", f)
	}
	// Identical flows competing must each see congestion loss.
	for i, r := range results {
		if r.LossEvents == 0 {
			t.Fatalf("flow %d saw no loss despite 4x overload", i)
		}
	}
}

func TestSharedHeterogeneousIntervals(t *testing.T) {
	path := testPath()
	ctrls := []Controller{
		&stubCtrl{name: "fast", interval: 0.01, pps: path.PacketsPerSec()},
		&stubCtrl{name: "slow", interval: 0.1, pps: path.PacketsPerSec()},
	}
	results := SimulateShared(sim.NewRNG(3), path, ctrls, []int64{256 << 20, 256 << 20}, Caps{})
	for i, r := range results {
		if r.Duration <= 0 || r.ThroughputBps() <= 0 {
			t.Fatalf("flow %d did not complete: %+v", i, r)
		}
	}
	// The slow controller advanced at its own cadence: its loss-event count
	// is bounded by elapsed/interval.
	slow := results[1]
	if max := int64(slow.Duration/0.1) + 1; slow.LossEvents > max {
		t.Fatalf("slow flow counted %d loss events in %d windows", slow.LossEvents, max)
	}
}

func TestSharedCapsThrottlePerFlow(t *testing.T) {
	path := testPath()
	caps := Caps{SenderBps: 100e6}
	ctrls := []Controller{&stubCtrl{name: "capped", interval: 0.01, pps: path.PacketsPerSec() * 4}}
	results := SimulateShared(sim.NewRNG(4), path, ctrls, []int64{64 << 20}, caps)
	if mbit := results[0].ThroughputMbit(); mbit > 101 {
		t.Fatalf("capped flow ran at %.0f mbit/s past its 100 mbit/s cap", mbit)
	}
}

// TestSharedFractionalDropsAccumulate is the SimulateShared mirror of
// TestSimulateFractionalDropsAccumulate: sub-packet per-tick drops must
// accumulate instead of truncating to zero every tick.
func TestSharedFractionalDropsAccumulate(t *testing.T) {
	path := Path{BandwidthBps: 100e6, RTT: 0.01, Loss: 0, MSS: 1000}
	ctrls := []Controller{&stubNoBackoff{interval: 0.01, pps: 12550}}
	results := SimulateShared(sim.NewRNG(3), path, ctrls, []int64{10_000_000}, Caps{})
	if got := results[0].Retransmit; got < 35 || got > 45 {
		t.Fatalf("retransmits = %d, want ~40 (fractional drops must accumulate)", got)
	}
}

// stubNoBackoff keeps a constant rate regardless of loss feedback.
type stubNoBackoff struct {
	interval sim.Duration
	pps      float64
}

func (c *stubNoBackoff) Name() string           { return "stub-constant" }
func (c *stubNoBackoff) Interval() sim.Duration { return c.interval }
func (c *stubNoBackoff) RatePps() float64       { return c.pps }
func (c *stubNoBackoff) OnInterval(bool)        {}
