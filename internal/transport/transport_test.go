package transport

import (
	"math"
	"testing"

	"osdc/internal/sim"
	"osdc/internal/simnet"
)

// fixedRate is a trivial controller sending at a constant rate.
type fixedRate struct {
	pps float64
	dt  sim.Duration
}

func (f *fixedRate) Name() string           { return "fixed" }
func (f *fixedRate) Interval() sim.Duration { return f.dt }
func (f *fixedRate) RatePps() float64       { return f.pps }
func (f *fixedRate) OnInterval(bool)        {}

func TestSimulateFixedRateLossless(t *testing.T) {
	path := Path{BandwidthBps: 1e9, RTT: 0.1, Loss: 0, MSS: 1000}
	// 1000 packets/s × 1000 B = 8 Mbit/s; 8 MB should take ~8 s.
	ctrl := &fixedRate{pps: 1000, dt: 0.01}
	res := Simulate(sim.NewRNG(1), path, ctrl, 8_000_000, Caps{})
	if math.Abs(res.Duration-8.0) > 0.05 {
		t.Fatalf("duration = %v, want ~8 s", res.Duration)
	}
	if res.LossEvents != 0 {
		t.Fatalf("loss events = %d on a lossless path", res.LossEvents)
	}
	if mb := res.ThroughputMbit(); math.Abs(mb-8.0) > 0.1 {
		t.Fatalf("throughput = %v Mbit/s, want ~8", mb)
	}
}

func TestSimulateCapLimits(t *testing.T) {
	path := Path{BandwidthBps: 10e9, RTT: 0.1, Loss: 0, MSS: 1000}
	ctrl := &fixedRate{pps: 1e6, dt: 0.01} // wants 8 Gbit/s
	caps := Caps{SenderBps: 400e6}         // cipher allows 400 Mbit/s
	res := Simulate(sim.NewRNG(1), path, ctrl, 500_000_000, caps)
	if mb := res.ThroughputMbit(); math.Abs(mb-400) > 5 {
		t.Fatalf("throughput = %v Mbit/s, want ~400 (cap)", mb)
	}
	if res.LossEvents != 0 {
		t.Fatal("cap-limited sending must not register loss")
	}
}

func TestSimulateBottleneckCongestion(t *testing.T) {
	path := Path{BandwidthBps: 100e6, RTT: 0.01, Loss: 0, MSS: 1000}
	ctrl := &fixedRate{pps: 25000, dt: 0.01} // wants 200 Mbit/s: 2× bottleneck
	res := Simulate(sim.NewRNG(1), path, ctrl, 50_000_000, Caps{})
	// Goodput is bounded by the bottleneck.
	if mb := res.ThroughputMbit(); mb > 101 {
		t.Fatalf("throughput = %v Mbit/s exceeds 100 Mbit bottleneck", mb)
	}
	if res.LossEvents == 0 {
		t.Fatal("sending at 2× bottleneck must cause congestion loss events")
	}
}

func TestSimulateRandomLossRetransmits(t *testing.T) {
	path := Path{BandwidthBps: 1e9, RTT: 0.05, Loss: 0.01, MSS: 1000}
	ctrl := &fixedRate{pps: 10000, dt: 0.01}
	res := Simulate(sim.NewRNG(7), path, ctrl, 10_000_000, Caps{})
	if res.Retransmit == 0 {
		t.Fatal("1% loss must cause retransmissions")
	}
	// ~1% of ~10k packets.
	if res.Retransmit < 30 || res.Retransmit > 300 {
		t.Fatalf("retransmits = %d, want ~100", res.Retransmit)
	}
}

func TestCapsMin(t *testing.T) {
	c := Caps{SenderBps: 500e6, DiskWriteBps: 1136e6, DiskReadBps: 3072e6}
	if got := c.Min(); got != 500e6 {
		t.Fatalf("Min = %v, want 500e6", got)
	}
	if got := (Caps{}).Min(); !math.IsInf(got, 1) {
		t.Fatalf("empty caps Min = %v, want +Inf", got)
	}
}

func TestLLRUsesSlowerDisk(t *testing.T) {
	caps := Caps{DiskReadBps: 3072e6, DiskWriteBps: 1136e6}
	r := Result{Bytes: 142_000_000, Duration: 1.0} // 1136 Mbit/s exactly
	if llr := r.LLR(caps); math.Abs(llr-1.0) > 1e-9 {
		t.Fatalf("LLR = %v, want 1.0", llr)
	}
	r2 := Result{Bytes: 94_000_000, Duration: 1.0} // 752 Mbit/s
	if llr := r2.LLR(caps); math.Abs(llr-0.6620) > 0.001 {
		t.Fatalf("LLR = %v, want ~0.662 (paper's UDR plain)", llr)
	}
}

func TestPathBetweenDerivesFromTopology(t *testing.T) {
	e := sim.NewEngine(1)
	nw := simnet.BuildOSDCTopology(e, simnet.DefaultWAN())
	simnet.AttachHost(nw, "a", simnet.SiteChicagoKenwood)
	simnet.AttachHost(nw, "b", simnet.SiteLVOC)
	p := PathBetween(nw, "a", "b")
	if p.BandwidthBps != 10*simnet.Gbit {
		t.Fatalf("bandwidth = %v, want 10G", p.BandwidthBps)
	}
	if p.RTT < 0.1035 || p.RTT > 0.1045 {
		t.Fatalf("RTT = %v, want ~104 ms", p.RTT)
	}
	if p.Loss <= 0 {
		t.Fatal("path loss should be positive on the WAN")
	}
	if p.BDP() < 100e6 {
		t.Fatalf("BDP = %v bytes, expected >100 MB on 10G×104ms", p.BDP())
	}
}

func TestSimulatePanicsOnZeroBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Simulate(sim.NewRNG(1), Path{BandwidthBps: 1e9, RTT: 0.1, MSS: 1000}, &fixedRate{pps: 10, dt: 0.01}, 0, Caps{})
}

// TestSimulatePanicsOnNonPositiveInterval: with dt <= 0 nothing is ever
// sent and t never advances, so neither the delivery condition nor the
// 100-day guard could end the loop.
func TestSimulatePanicsOnNonPositiveInterval(t *testing.T) {
	for _, dt := range []sim.Duration{0, -0.01} {
		func() {
			defer func() {
				if got := recover(); got != "transport: controller has non-positive interval" {
					t.Fatalf("interval %v: recovered %v", dt, got)
				}
			}()
			Simulate(sim.NewRNG(1), Path{BandwidthBps: 1e9, RTT: 0.1, MSS: 1000}, &fixedRate{pps: 10, dt: dt}, 1000, Caps{})
		}()
	}
}

func TestPoissonMean(t *testing.T) {
	rng := sim.NewRNG(3)
	var s lossSampler
	const n = 20000
	for _, mean := range []float64{0.5, 5, 200} {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.draw(rng, mean)
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("poisson(%v) sample mean = %v", mean, got)
		}
	}
	if s.draw(rng, 0) != 0 {
		t.Fatal("poisson(0) != 0")
	}
	// Alternating two small means recomputes the memo on every draw; each
	// stream must still have its own mean.
	means := [2]float64{0.5, 5}
	var sums [2]float64
	for i := 0; i < 2*n; i++ {
		sums[i%2] += s.draw(rng, means[i%2])
	}
	for i, mean := range means {
		if got := sums[i] / n; math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("alternating: poisson(%v) sample mean = %v", mean, got)
		}
	}
}

// TestLossSamplerMemoEdges pins the two cases that must never reach the
// memo. The zero-value sampler holds mean 0 with expNeg 0: were mean <= 0
// looked up there, it would hit, and Knuth's loop would draw until its
// product underflowed (~1000 draws a tick). And mean > 50 takes the normal
// branch without evicting the small mean a capped flow will come back to.
func TestLossSamplerMemoEdges(t *testing.T) {
	rng := sim.NewRNG(11)
	ctrl := &fixedRate{pps: 1000, dt: 0.01}
	Simulate(rng, Path{BandwidthBps: 1e9, RTT: 0.1, Loss: 0, MSS: 1000}, ctrl, 8_000_000, Caps{})
	if got, want := rng.Uint64(), sim.NewRNG(11).Uint64(); got != want {
		t.Fatalf("a lossless transfer drew from the RNG: next Uint64 %#x, fresh RNG %#x", got, want)
	}

	var s lossSampler
	if s.draw(rng, -1) != 0 || s != (lossSampler{}) {
		t.Fatalf("negative mean touched the memo: %+v", s)
	}
	s.draw(rng, 0.25)
	held := s
	if held.mean != 0.25 || held.expNeg != math.Exp(-0.25) {
		t.Fatalf("memo after draw(0.25) = %+v", held)
	}
	s.draw(rng, 200)
	s.draw(rng, 0)
	if s != held {
		t.Fatalf("memo moved off the small mean: %+v, want %+v", s, held)
	}
}

func TestResultThroughputZeroDuration(t *testing.T) {
	r := Result{Bytes: 100}
	if r.ThroughputBps() != 0 {
		t.Fatal("zero-duration result must report zero throughput")
	}
}

// TestSimulateFractionalDropsAccumulate pins the retransmit accounting for
// slow flows: a sender 0.4% above the bottleneck drops exactly half a
// packet per 10 ms interval, which per-interval truncation would count as
// zero forever.
func TestSimulateFractionalDropsAccumulate(t *testing.T) {
	path := Path{BandwidthBps: 100e6, RTT: 0.01, Loss: 0, MSS: 1000}
	// bottleneck = 12500 pps; offering 12550 drops 0.5 packets per 10 ms.
	ctrl := &fixedRate{pps: 12550, dt: 0.01}
	res := Simulate(sim.NewRNG(3), path, ctrl, 10_000_000, Caps{})
	// 10 MB at 125 kB per interval = 80 intervals × 0.5 drops = ~40.
	if res.Retransmit < 35 || res.Retransmit > 45 {
		t.Fatalf("retransmits = %d, want ~40 (fractional drops must accumulate)", res.Retransmit)
	}
}
