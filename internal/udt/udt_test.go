package udt

import (
	"bytes"
	"crypto/sha256"
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
	if rc.Decreases() != 1 {
		t.Fatalf("decreases = %d, want 1", rc.Decreases())
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
func TestRateControlMatchesReferenceLaw(t *testing.T) {
	for _, mss := range []int{transport.DefaultMSS, 8960} {
		for _, lossEvery := range []int{0, 7, 400, 5000} {
			path := lvocPath()
			path.MSS = mss
			rc := NewRateControl(path)
			ref := &referenceRate{mss: mss, capacityPps: rc.capacityPps, ratePps: rc.ratePps}
			rng := sim.NewRNG(uint64(mss + lossEvery))
			for i := 0; i < 50_000; i++ {
				loss := lossEvery > 0 && rng.Intn(lossEvery) == 0
				rc.OnInterval(loss)
				ref.onInterval(loss)
				if rc.ratePps != ref.ratePps {
					t.Fatalf("mss %d, loss 1/%d, interval %d: rate %v, reference %v", mss, lossEvery, i, rc.ratePps, ref.ratePps)
				}
			}
			if lossEvery == 0 && rc.ratePps <= rc.capacityPps {
				t.Fatalf("mss %d: a lossless walk never reached the at-capacity branch", mss)
			}
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

// --- packet-level socket tests ---

func testNet(loss float64) (*sim.Engine, *simnet.Network) {
	e := sim.NewEngine(42)
	nw := simnet.New(e)
	nw.AddNode("src", "chi")
	nw.AddNode("dst", "lvoc")
	nw.AddDuplex("src", "dst", simnet.Gbit, 10*sim.Millisecond, loss)
	return e, nw
}

func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestSocketLosslessDeliveryExact(t *testing.T) {
	e, nw := testNet(0)
	data := payload(1_000_000, 3)
	var done bool
	_, r := Transfer(nw, "src", "dst", "s1", data, func(*Stats) { done = true })
	e.RunUntil(60)
	if !done || !r.Finished() {
		t.Fatal("transfer did not complete")
	}
	if sha256.Sum256(r.Data()) != sha256.Sum256(data) {
		t.Fatal("received bytes differ from sent bytes")
	}
}

func TestSocketRecoversFromHeavyLoss(t *testing.T) {
	e, nw := testNet(0.05) // 5% loss each way
	data := payload(500_000, 9)
	var stats *Stats
	_, r := Transfer(nw, "src", "dst", "s2", data, func(s *Stats) { stats = s })
	e.RunUntil(300)
	if stats == nil || !r.Finished() {
		t.Fatal("transfer did not complete under 5% loss")
	}
	if !bytes.Equal(r.Data(), data) {
		t.Fatal("data corrupted under loss")
	}
	if stats.Retransmits == 0 {
		t.Fatal("expected retransmissions under 5% loss")
	}
	if stats.NaksSent == 0 {
		t.Fatal("expected NAKs under loss")
	}
	if stats.RateDecs == 0 {
		t.Fatal("expected rate decreases under loss")
	}
}

func TestSocketNoLossNoRetransmit(t *testing.T) {
	e, nw := testNet(0)
	data := payload(200_000, 1)
	var stats *Stats
	Transfer(nw, "src", "dst", "s3", data, func(s *Stats) { stats = s })
	e.RunUntil(60)
	if stats == nil {
		t.Fatal("no completion")
	}
	if stats.Retransmits != 0 {
		t.Fatalf("retransmits = %d on lossless path", stats.Retransmits)
	}
	if stats.RateDecs != 0 {
		t.Fatalf("rate decreases = %d on lossless path", stats.RateDecs)
	}
}

func TestSocketTinyTransfer(t *testing.T) {
	e, nw := testNet(0)
	data := []byte("hello OSDC")
	var done bool
	_, r := Transfer(nw, "src", "dst", "s4", data, func(*Stats) { done = true })
	e.RunUntil(10)
	if !done {
		t.Fatal("tiny transfer did not complete")
	}
	if !bytes.Equal(r.Data(), data) {
		t.Fatalf("got %q want %q", r.Data(), data)
	}
}

func TestSocketEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty transfer")
		}
	}()
	_, nw := testNet(0)
	Transfer(nw, "src", "dst", "s5", nil, nil)
}

func TestSocketConcurrentSessionsIsolated(t *testing.T) {
	e, nw := testNet(0.01)
	a := payload(300_000, 5)
	b := payload(300_000, 11)
	_, ra := Transfer(nw, "src", "dst", "sa", a, nil)
	_, rb := Transfer(nw, "src", "dst", "sb", b, nil)
	e.RunUntil(120)
	if !ra.Finished() || !rb.Finished() {
		t.Fatal("concurrent sessions did not both finish")
	}
	if !bytes.Equal(ra.Data(), a) || !bytes.Equal(rb.Data(), b) {
		t.Fatal("sessions cross-contaminated data")
	}
}
