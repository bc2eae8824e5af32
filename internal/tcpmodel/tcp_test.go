package tcpmodel

import (
	"math"
	"testing"

	"osdc/internal/sim"
	"osdc/internal/simnet"
	"osdc/internal/transport"
)

func lvocPath() transport.Path {
	return transport.Path{
		BandwidthBps: 10 * simnet.Gbit,
		RTT:          0.104,
		Loss:         2e-9,
		MSS:          transport.DefaultMSS,
	}
}

func TestRenoSlowStartDoubles(t *testing.T) {
	r := NewReno(lvocPath(), 0)
	w0 := r.window()
	r.OnInterval(false)
	if got := r.window(); math.Abs(got-2*w0) > 1e-9 {
		t.Fatalf("cwnd after one RTT = %v, want %v (doubling)", got, 2*w0)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	r := NewReno(lvocPath(), 0)
	r.OnInterval(true) // exit slow start
	w := r.window()
	r.OnInterval(false)
	if got := r.window(); math.Abs(got-(w+1)) > 1e-9 {
		t.Fatalf("CA growth = %v, want +1 packet/RTT", got-w)
	}
}

func TestRenoHalvesOnLoss(t *testing.T) {
	r := NewReno(lvocPath(), 0)
	for i := 0; i < 10; i++ {
		r.OnInterval(false)
	}
	w := r.window()
	r.OnInterval(true)
	if got := r.window(); math.Abs(got-w/2) > 1e-9 {
		t.Fatalf("cwnd after loss = %v, want %v", got, w/2)
	}
}

func TestRenoWindowCap(t *testing.T) {
	// ssh channel window: 3.64 MB caps throughput at ~280 Mbit/s on 104 ms.
	capBytes := 3_640_000
	r := NewReno(lvocPath(), capBytes)
	for i := 0; i < 5000; i++ {
		r.OnInterval(false)
	}
	maxRate := float64(capBytes) * 8 / 0.104
	got := r.RatePps() * float64(transport.DefaultMSS) * 8
	if got > maxRate*1.01 {
		t.Fatalf("rate %v exceeds window cap rate %v", got, maxRate)
	}
	if got < maxRate*0.95 {
		t.Fatalf("rate %v did not reach window cap rate %v", got, maxRate)
	}
}

func TestRenoFloorAtTwoSegments(t *testing.T) {
	r := NewReno(lvocPath(), 0)
	for i := 0; i < 100; i++ {
		r.OnInterval(true)
	}
	if r.window() < 2 {
		t.Fatalf("cwnd = %v, must not fall below 2", r.window())
	}
}

func TestMacroRenoMathisShape(t *testing.T) {
	// With non-trivial loss, uncapped Reno settles near the Mathis rate
	// MSS/RTT × sqrt(1.5/p). At p = 2e-6 that is ≈ 97 Mbit/s.
	path := lvocPath()
	path.Loss = 2e-6
	r := NewReno(path, 0)
	res := transport.Simulate(sim.NewRNG(5), path, r, 20_000_000_000, transport.Caps{})
	mb := res.ThroughputMbit()
	if mb < 55 || mb > 200 {
		t.Fatalf("Reno at p=2e-6 = %.0f Mbit/s, want ~100 (Mathis)", mb)
	}
}

func TestMacroRenoWindowCapDominates(t *testing.T) {
	path := lvocPath()
	r := NewReno(path, 3_640_000)
	res := transport.Simulate(sim.NewRNG(5), path, r, 5_000_000_000, transport.Caps{})
	mb := res.ThroughputMbit()
	if mb < 230 || mb > 285 {
		t.Fatalf("capped Reno = %.0f Mbit/s, want ~260–280", mb)
	}
}

func TestBufferLimitedRenoLeavesPathIdle(t *testing.T) {
	// The paper's core claim (Table 3): rsync over TCP leaves most of a
	// 10G×104 ms path idle. With a 2012-default ~5.3 MB socket buffer the
	// window cap alone bounds TCP at ~405 Mbit/s — 4% of the path.
	path := lvocPath()
	tcp := transport.Simulate(sim.NewRNG(9), path, NewReno(path, 5_270_000), 10_000_000_000, transport.Caps{})
	frac := tcp.ThroughputBps() / path.BandwidthBps
	if frac > 0.06 {
		t.Fatalf("buffer-limited TCP achieved %.1f%% of the path; want ≤6%%", frac*100)
	}
	if mb := tcp.ThroughputMbit(); mb < 350 || mb > 410 {
		t.Fatalf("buffer-limited TCP = %.0f Mbit/s, want ~400", mb)
	}
}

// TestRenoQuietMatchesIntervals holds OnQuietIntervals(n) to n calls of
// OnInterval(false): the same cwnd, ssthresh and RatePps bits, from slow
// start, just after a halving, one packet below the cap, a fractional
// window crossing a binade, and at the cap, for short and long runs.
// Along the single steps, a Steady window must leave RatePps unchanged.
func TestRenoQuietMatchesIntervals(t *testing.T) {
	path := lvocPath()
	capped := func() *Reno { return NewReno(path, 5_270_000) }
	starts := []struct {
		name string
		r    func() *Reno
	}{
		{"slow start", capped},
		{"slow start uncapped", func() *Reno { return NewReno(path, 0) }},
		{"slow start into ssthresh", func() *Reno { r := capped(); r.ssthresh = 100; return r }},
		{"just after a halving", func() *Reno {
			r := capped()
			for i := 0; i < 8; i++ {
				r.OnInterval(false)
			}
			r.OnInterval(true)
			return r
		}},
		{"one below the cap", func() *Reno { r := capped(); r.cwnd, r.ssthresh = r.capPkts-1, 2; return r }},
		{"fractional, across a binade", func() *Reno { r := NewReno(path, 0); r.cwnd, r.ssthresh = 4095.3, 2; return r }},
		{"fractional, across a binade into the cap", func() *Reno {
			r := NewReno(path, 4097*transport.DefaultMSS+700)
			r.cwnd, r.ssthresh = 4093.7, 2
			return r
		}},
		{"at the cap", func() *Reno { r := capped(); r.cwnd = r.capPkts; return r }},
		{"at the cap in slow start", func() *Reno { r := capped(); r.cwnd, r.ssthresh = r.capPkts, 1e12; return r }},
		{"above a tiny cap", func() *Reno { return NewReno(path, 2000) }},
		// From 2^53 on, cwnd + 1 ties and rounds back: one add of n would not.
		{"where +1 stops adding", func() *Reno { r := NewReno(path, 0); r.cwnd, r.ssthresh = 1<<53-3, 2; return r }},
	}
	for _, start := range starts {
		for _, n := range []int{1, 2, 17, 1000, 1_000_000} {
			bulk, ref := start.r(), start.r()
			bulk.OnQuietIntervals(n)
			for i := 0; i < n; i++ {
				steady, rate := ref.Steady(), ref.RatePps()
				ref.OnInterval(false)
				if steady && ref.RatePps() != rate {
					t.Fatalf("%s, interval %d: Steady, but the rate moved %v → %v", start.name, i, rate, ref.RatePps())
				}
			}
			if bulk.cwnd != ref.cwnd || bulk.ssthresh != ref.ssthresh || bulk.RatePps() != ref.RatePps() {
				t.Fatalf("%s, %d intervals: quiet cwnd %v ssthresh %v rate %v; single steps %v, %v, %v",
					start.name, n, bulk.cwnd, bulk.ssthresh, bulk.RatePps(), ref.cwnd, ref.ssthresh, ref.RatePps())
			}
		}
	}
}
