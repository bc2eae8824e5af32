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
	farInc := rc.increment()
	rc.ratePps = rc.capacityPps * 0.999
	nearInc := rc.increment()
	if nearInc >= farInc {
		t.Fatalf("increment near capacity (%v) not smaller than far (%v)", nearInc, farInc)
	}
	rc.ratePps = rc.capacityPps * 1.5
	overInc := rc.increment()
	if overInc != 1.0/float64(rc.mss) {
		t.Fatalf("increment above capacity = %v, want minimum 1/MSS", overInc)
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
// must reach the same bits as the run's single steps. Each walk starts
// twice: at UDT's initial rate, and already above capacity.
func TestRateControlMatchesReferenceLaw(t *testing.T) {
	seen := map[string]bool{}
	for _, mss := range []int{transport.DefaultMSS, 8960} {
		for _, walk := range []struct {
			lossEvery  int
			aboveStart bool
		}{{0, false}, {7, false}, {400, false}, {5000, false}, {0, true}, {5000, true}} {
			lossEvery := walk.lossEvery
			path := lvocPath()
			path.MSS = mss
			rc := NewRateControl(path)
			if walk.aboveStart {
				rc.ratePps = rc.capacityPps * 1.5
			}
			ref := &referenceRate{mss: mss, capacityPps: rc.capacityPps, ratePps: rc.ratePps}
			bulk := *rc
			run := 0
			flush := func(i int) {
				below := bulk.ratePps < bulk.capacityPps
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
	for _, kind := range []string{"empty", "below capacity", "across capacity", "long at capacity"} {
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
