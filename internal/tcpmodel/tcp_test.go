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
