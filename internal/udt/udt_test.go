package udt

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
		Loss:         1.15e-7,
		MSS:          transport.DefaultMSS,
	}
}

func TestRateControlRampsTowardCapacity(t *testing.T) {
	rc := NewRateControl(lvocPath())
	// 30 simulated seconds without loss.
	for i := 0; i < 3000; i++ {
		rc.OnInterval(false)
	}
	gbps := rc.RatePps() * float64(transport.DefaultMSS*8) / 1e9
	if gbps < 5 {
		t.Fatalf("after 30 s UDT rate = %.2f Gbit/s, want ≥5 (fast ramp)", gbps)
	}
}

func TestRateControlDecreaseFactor(t *testing.T) {
	rc := NewRateControl(lvocPath())
	for i := 0; i < 1000; i++ {
		rc.OnInterval(false)
	}
	before := rc.RatePps()
	rc.OnInterval(true)
	after := rc.RatePps()
	if math.Abs(after/before-DecreaseFactor) > 1e-9 {
		t.Fatalf("decrease ratio = %v, want 8/9", after/before)
	}
}

func TestRateControlFloorsAtOnePacketPerSYN(t *testing.T) {
	rc := NewRateControl(lvocPath())
	for i := 0; i < 10000; i++ {
		rc.OnInterval(true)
	}
	if got := rc.RatePps(); got < 1/SYN-1e-9 {
		t.Fatalf("rate fell to %v pps, below floor", got)
	}
}

func TestIncrementShrinksNearCapacity(t *testing.T) {
	rc := NewRateControl(lvocPath())
	pktBits := float64(rc.mss * 8)
	farInc := rc.step((rc.capacityPps-rc.ratePps)*pktBits) * SYN
	rc.ratePps = rc.capacityPps * 0.999
	nearInc := rc.step((rc.capacityPps-rc.ratePps)*pktBits) * SYN
	if nearInc >= farInc {
		t.Fatalf("increment near capacity (%v) not smaller than far (%v)", nearInc, farInc)
	}
	rc.ratePps = rc.capacityPps * 1.5
	before := rc.ratePps
	rc.OnInterval(false)
	if rc.ratePps != before+rc.minIncPps {
		t.Fatalf("increase above capacity = %v pps, want the minimum 1/MSS per SYN", rc.ratePps-before)
	}
}

// referenceRate is the control law as written before OnInterval learned
// to skip increment() at capacity: 1/MSS and the division by SYN computed
// on every interval.
type referenceRate struct {
	mss                  int
	capacityPps, ratePps float64
}

func (rc *referenceRate) onInterval(lossEvent bool) {
	if lossEvent {
		rc.ratePps *= DecreaseFactor
		if rc.ratePps < 1/SYN {
			rc.ratePps = 1 / SYN
		}
		return
	}
	rc.ratePps += rc.increment() / SYN
}

func (rc *referenceRate) increment() float64 {
	residualPps := rc.capacityPps - rc.ratePps
	minInc := 1.0 / float64(rc.mss)
	if residualPps <= 0 {
		return minInc
	}
	residualBits := residualPps * float64(rc.mss*8)
	inc := math.Pow(10, math.Ceil(math.Log10(residualBits))) * Beta / float64(rc.mss)
	if inc < minInc {
		return minInc
	}
	return inc
}

// TestRateControlMatchesReferenceLaw walks both laws through the ramp, a
// long stay above capacity and seeded loss at several rates, over Ethernet
// and jumbo segments, and wants the same rate bits after every interval.
// A third law takes each loss-free run in one OnQuietIntervals call and
// must reach the same bits as the run's single steps. Each walk starts at
// UDT's initial rate, already above capacity, or at a capacity a few
// hundred floor increments below 2^20, so its run at capacity crosses a
// power of two. Loss-free ramps from just above, on and just below each
// decade boundary of the residual check the decade stride.
func TestRateControlMatchesReferenceLaw(t *testing.T) {
	seen := map[string]bool{}
	for _, mss := range []int{transport.DefaultMSS, 8960} {
		for _, walk := range []struct {
			lossEvery            int
			aboveStart, nearPow2 bool
		}{{0, false, false}, {7, false, false}, {400, false, false}, {5000, false, false}, {0, true, false}, {5000, true, false}, {0, false, true}} {
			lossEvery := walk.lossEvery
			path := lvocPath()
			path.MSS = mss
			rc := NewRateControl(path)
			if walk.aboveStart {
				rc.ratePps = rc.capacityPps * 1.5
			}
			if walk.nearPow2 {
				rc.capacityPps = 1<<20 - 300*rc.minIncPps
				rc.ratePps = rc.capacityPps
			}
			ref := &referenceRate{mss: mss, capacityPps: rc.capacityPps, ratePps: rc.ratePps}
			bulk := *rc
			run := 0
			flush := func(i int) {
				below := bulk.ratePps < bulk.capacityPps
				binade := math.Float64bits(bulk.ratePps) >> 52
				bulk.OnQuietIntervals(run)
				if bulk.ratePps != ref.ratePps {
					t.Fatalf("mss %d, loss 1/%d, interval %d: %d quiet intervals reach %v, single steps %v", mss, lossEvery, i, run, bulk.ratePps, ref.ratePps)
				}
				above := bulk.ratePps >= bulk.capacityPps
				switch {
				case run == 0:
					seen["empty"] = true
				case below && above:
					seen["across capacity"] = true
				case below:
					seen["below capacity"] = true
				case run >= 1000 && binade != math.Float64bits(bulk.ratePps)>>52:
					seen["long at capacity across a binade"] = true
				case run >= 1000:
					seen["long at capacity"] = true
				}
				run = 0
			}
			rng := sim.NewRNG(uint64(mss + lossEvery))
			for i := 0; i < 50_000; i++ {
				loss := lossEvery > 0 && rng.Intn(lossEvery) == 0
				if loss {
					flush(i)
					bulk.OnInterval(true)
				} else {
					run++
				}
				rc.OnInterval(loss)
				ref.onInterval(loss)
				if rc.ratePps != ref.ratePps {
					t.Fatalf("mss %d, loss 1/%d, interval %d: rate %v, reference %v", mss, lossEvery, i, rc.ratePps, ref.ratePps)
				}
			}
			flush(50_000)
			if lossEvery == 0 && rc.ratePps <= rc.capacityPps {
				t.Fatalf("mss %d: a lossless walk never reached the at-capacity branch", mss)
			}
		}
	}
	// The ramp takes a decade of residual bits in one add, so start right
	// at the decade boundaries: residuals 1e-12, 1e-9 and 1e-6 relative
	// above and below 10^d (and on it), d = 5 (the floor's edge) to 10,
	// on a 100 Gbit/s link so every start has a positive rate. Each run
	// crosses at least three decades or reaches capacity, in loss-free
	// chunks that start and end at arbitrary places in a decade.
	for _, mss := range []int{transport.DefaultMSS, 8960} {
		path := lvocPath()
		path.MSS = mss
		path.BandwidthBps = 100 * simnet.Gbit
		pktBits := float64(mss * 8)
		for d := 5; d <= 10; d++ {
			for _, eps := range []float64{-1e-6, -1e-9, -1e-12, 0, 1e-12, 1e-9, 1e-6} {
				rc := NewRateControl(path)
				rc.ratePps = rc.capacityPps - math.Pow(10, float64(d))*(1+eps)/pktBits
				ref := &referenceRate{mss: mss, capacityPps: rc.capacityPps, ratePps: rc.ratePps}
				startDecade := math.Ceil(math.Log10((rc.capacityPps - rc.ratePps) * pktBits))
				steps := 0
				for _, run := range []int{4000, 1, 16, 17, 100, 749, 750, 2500} {
					rc.OnQuietIntervals(run)
					for i := 0; i < run; i++ {
						ref.onInterval(false)
					}
					steps += run
					if rc.ratePps != ref.ratePps {
						t.Fatalf("mss %d, residual 10^%d·(1%+g): %d quiet intervals reach %v, single steps %v", mss, d, eps, steps, rc.ratePps, ref.ratePps)
					}
					if steps == 4000 {
						residual := rc.capacityPps - rc.ratePps
						if residual > 0 && startDecade-math.Ceil(math.Log10(residual*pktBits)) < 3 {
							t.Fatalf("mss %d, residual 10^%d·(1%+g): the first run crossed fewer than three decades", mss, d, eps)
						}
					}
				}
			}
		}
	}
	// A loss sends the residual up across a decade boundary and the next
	// SYN brings it back, so the stored step's window is left and
	// re-entered: from 10^d·(1-0.5%) residual bits at a rate whose 1/9 is
	// 1 % of 10^d, a loss lifts the residual 0.5 % past 10^d, and one step
	// of the decade above takes off 1.2 % of 10^d. d = 0 starts at the
	// floor, 5e4 bits from capacity at 300 packets/s, where the loss lifts
	// the residual straight into decade 6 (7 over jumbo segments).
	for _, mss := range []int{transport.DefaultMSS, 8960} {
		path := lvocPath()
		path.MSS = mss
		pktBits := float64(mss * 8)
		for _, d := range []int{0, 8, 9, 10} {
			rc := NewRateControl(path)
			rc.ratePps = 9 * 0.01 * math.Pow(10, float64(d)) / pktBits
			rc.capacityPps = rc.ratePps + math.Pow(10, float64(d))*(1-0.005)/pktBits
			if d == 0 {
				rc.ratePps = 300
				rc.capacityPps = rc.ratePps + 5e4/pktBits
			}
			ref := &referenceRate{mss: mss, capacityPps: rc.capacityPps, ratePps: rc.ratePps}
			bulk := *rc
			var his []float64 // the stored window's top, each time it changes
			run := 0
			for i, loss := range []bool{false, false, true, false, false, true, false, false, false} {
				if loss {
					bulk.OnQuietIntervals(run)
					bulk.OnInterval(true)
					run = 0
				} else {
					run++
				}
				rc.OnInterval(loss)
				ref.onInterval(loss)
				if rc.ratePps != ref.ratePps {
					t.Fatalf("mss %d, decade %d, interval %d: rate %v, reference %v", mss, d, i, rc.ratePps, ref.ratePps)
				}
				if len(his) == 0 || his[len(his)-1] != rc.hi {
					his = append(his, rc.hi)
				}
			}
			if bulk.OnQuietIntervals(run); bulk.ratePps != ref.ratePps {
				t.Fatalf("mss %d, decade %d: quiet intervals reach %v, single steps %v", mss, d, bulk.ratePps, ref.ratePps)
			}
			if d == 0 {
				if len(his) != 2 {
					t.Fatalf("mss %d: from the floor, the window went %v, want the floor's and decade 6's", mss, his)
				}
				continue
			}
			if len(his) < 5 || his[0] != his[2] || his[1] != his[3] || his[0] == his[1] {
				t.Fatalf("mss %d, decade %d: the window went %v, want it left and re-entered twice", mss, d, his)
			}
		}
	}
	for _, kind := range []string{"empty", "below capacity", "across capacity", "long at capacity", "long at capacity across a binade"} {
		if !seen[kind] {
			t.Errorf("no %s quiet run was checked", kind)
		}
	}
}

func TestMacroTransferApproachesBottleneckOnCleanPath(t *testing.T) {
	path := transport.Path{BandwidthBps: 1 * simnet.Gbit, RTT: 0.104, Loss: 0, MSS: 1460}
	rc := NewRateControl(path)
	res := transport.Simulate(sim.NewRNG(1), path, rc, 10_000_000_000, transport.Caps{})
	mb := res.ThroughputMbit()
	// DAIMD oscillates just under the bottleneck.
	if mb < 800 || mb > 1001 {
		t.Fatalf("UDT on clean 1G path = %.0f Mbit/s, want 800–1000", mb)
	}
}

func TestMacroTransferRespectsCipherCap(t *testing.T) {
	path := lvocPath()
	rc := NewRateControl(path)
	caps := transport.Caps{SenderBps: 394e6, DiskReadBps: 3072e6, DiskWriteBps: 1136e6}
	res := transport.Simulate(sim.NewRNG(1), path, rc, 5_000_000_000, caps)
	mb := res.ThroughputMbit()
	if mb < 370 || mb > 395 {
		t.Fatalf("UDT with 394 Mbit cipher cap = %.0f Mbit/s, want ~390", mb)
	}
}

// FuzzAddRepeatedMatchesLoop holds sim.AddRepeated, which RateControl
// takes its at-capacity SYNs and its ramp's decades through, to the loop
// it replaces: the same bits after n sequential adds, NaN matching any
// NaN. sim's target of the same name is the general oracle; this corpus
// adds the rates RateControl feeds it, which sim cannot build.
func FuzzAddRepeatedMatchesLoop(f *testing.F) {
	u := math.Ldexp(1, -52) // the spacing of [1, 2)
	ethernet := NewRateControl(lvocPath())
	jumbo := lvocPath()
	jumbo.MSS = 8960
	jumboRC := NewRateControl(jumbo)
	for _, seed := range []struct {
		x, c float64
		n    int
	}{
		// Ties, whose rounding follows a's parity; k = 0 and below.
		{1, 2.5 * u, 1000}, {1, 7.5 * u, 1000}, {1, 0.5 * u, 1000}, {1, 0.49 * u, 1000},
		// A few steps below a power of two: f > 0 stops short of it, f < 0
		// lands on it.
		{2 - 3*u, 1.3 * u, 1000}, {2 - 3*u, 0.7 * u, 1000},
		// Across several binades, and a c wider than the binade.
		{1, 0.3, 100}, {1 << 19, 1 << 20, 100},
		// n = 0, 1 and around the short-run bound.
		{1, 3 * u, 0}, {1, 3 * u, 1},
		{1, 3.3 * u, sim.ShortRun - 1}, {1, 3.3 * u, sim.ShortRun}, {1, 3.3 * u, sim.ShortRun + 1},
		// Negative c or x, subnormal and zero x, Inf, NaN, and an overflow.
		{1e6, -0.07, 1000}, {-1e6, 0.07, 1000}, {5e-324, 3e-323, 1000}, {0, 2.2e-308, 1000},
		{math.Inf(1), 1, 100}, {math.Inf(-1), 1, 100}, {1, math.Inf(1), 100},
		{math.NaN(), 1, 100}, {1, math.NaN(), 100}, {math.MaxFloat64 - 1e292, 1e292, 1000},
		// UDT at capacity over Ethernet and jumbo segments.
		{ethernet.capacityPps, ethernet.minIncPps, 100_000},
		{jumboRC.capacityPps, jumboRC.minIncPps, 100_000},
	} {
		f.Add(seed.x, seed.c, seed.n)
	}
	f.Fuzz(func(t *testing.T, x, c float64, n int) {
		n = int(uint64(n) % 100_001)
		want := x
		for i := 0; i < n; i++ {
			want += c
		}
		got := sim.AddRepeated(x, c, n)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("AddRepeated(%v, %v, %d) = %v (%#x), loop %v (%#x)", x, c, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
