package transport_test

import (
	"fmt"
	"math"
	"testing"

	"osdc/internal/cipher"
	"osdc/internal/experiments"
	"osdc/internal/sim"
	"osdc/internal/tcpmodel"
	"osdc/internal/transport"
	"osdc/internal/udr"
	"osdc/internal/udt"
)

// referenceSimulate is Simulate as it stood before the per-tick cost work
// (free-function poisson, Interval() and the cap division every tick, peak
// converted every tick), kept verbatim as the oracle the optimised loop
// must match bit for bit and draw for draw. The only edit: the interval
// guard the old loop lacked, so a bad fuzz input fails instead of hanging.
func referenceSimulate(rng *sim.RNG, path transport.Path, ctrl transport.Controller, totalBytes int64, caps transport.Caps) transport.Result {
	if totalBytes <= 0 {
		panic("transport: totalBytes must be positive")
	}
	if path.MSS <= 0 {
		path.MSS = transport.DefaultMSS
	}
	if ctrl.Interval() <= 0 {
		panic("transport: controller has non-positive interval")
	}
	res := transport.Result{Protocol: ctrl.Name(), Bytes: totalBytes}
	capBps := caps.Min()
	pktBits := float64(path.MSS * 8)
	bottleneckPps := path.BandwidthBps / pktBits

	var delivered float64
	var t sim.Duration
	var retrans float64
	for delivered < float64(totalBytes) {
		dt := ctrl.Interval()
		rawPps := ctrl.RatePps()
		effPps := rawPps
		if capBps < effPps*pktBits {
			effPps = capBps / pktBits
		}
		congDrops := 0.0
		if effPps > bottleneckPps {
			congDrops = (effPps - bottleneckPps) * dt
			effPps = bottleneckPps
		}
		sent := effPps * dt
		lost := referencePoisson(rng, sent*path.Loss)
		if lost > sent {
			lost = sent
		}
		lossEvent := lost > 0 || congDrops >= 1
		arrived := sent - lost
		retrans += lost + congDrops
		deliveredNow := arrived * float64(path.MSS)
		delivered += deliveredNow
		if bps := deliveredNow * 8 / dt; bps > res.PeakBps {
			res.PeakBps = bps
		}
		if lossEvent {
			res.LossEvents++
		}
		ctrl.OnInterval(lossEvent)
		t += dt
		if t > 100*sim.Day {
			panic("transport: transfer did not converge (rate stuck near zero?)")
		}
	}
	over := delivered - float64(totalBytes)
	if over > 0 {
		lastRate := delivered / t
		if lastRate > 0 {
			t -= over / lastRate
		}
	}
	res.Duration = t
	res.Retransmit = int64(math.Round(retrans))
	return res
}

// referencePoisson is the memo-free sampler: exp(-mean) on every call.
func referencePoisson(rng *sim.RNG, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := math.Round(rng.Normal(mean, math.Sqrt(mean)))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			break
		}
		k++
	}
	return float64(k)
}

// referenceSimulateShared is SimulateShared's body from the same commit,
// drawing loss through referencePoisson.
func referenceSimulateShared(rng *sim.RNG, path transport.Path, ctrls []transport.Controller, totalBytes []int64, caps transport.Caps) []transport.Result {
	if len(ctrls) == 0 || len(ctrls) != len(totalBytes) {
		panic(fmt.Sprintf("transport: %d controllers for %d transfer sizes", len(ctrls), len(totalBytes)))
	}
	if path.MSS <= 0 {
		path.MSS = transport.DefaultMSS
	}
	pktBits := float64(path.MSS * 8)
	bottleneckPps := path.BandwidthBps / pktBits
	capPps := math.Inf(1)
	if c := caps.Min(); !math.IsInf(c, 1) {
		capPps = c / pktBits
	}
	tick := math.Inf(1)
	for i, c := range ctrls {
		if c.Interval() <= 0 {
			panic(fmt.Sprintf("transport: controller %d has non-positive interval", i))
		}
		tick = math.Min(tick, c.Interval())
	}
	type flowState struct {
		remaining float64
		retrans   float64
		sinceCtrl sim.Duration
		lossInWin bool
		done      bool
	}
	flows := make([]flowState, len(ctrls))
	results := make([]transport.Result, len(ctrls))
	active := len(ctrls)
	for i := range ctrls {
		if totalBytes[i] <= 0 {
			panic("transport: totalBytes must be positive")
		}
		flows[i].remaining = float64(totalBytes[i])
		results[i] = transport.Result{Protocol: ctrls[i].Name(), Bytes: totalBytes[i]}
	}
	offered := make([]float64, len(ctrls))
	var t sim.Duration
	for active > 0 {
		var total float64
		for i := range flows {
			offered[i] = 0
			if flows[i].done {
				continue
			}
			pps := math.Min(ctrls[i].RatePps(), capPps)
			offered[i] = pps
			total += pps
		}
		overload := total > bottleneckPps
		for i := range flows {
			if flows[i].done || offered[i] == 0 {
				continue
			}
			eff := offered[i]
			congDrops := 0.0
			if overload {
				keep := bottleneckPps / total
				congDrops = eff * (1 - keep) * tick
				eff *= keep
			}
			sent := eff * tick
			lost := referencePoisson(rng, sent*path.Loss)
			if lost > sent {
				lost = sent
			}
			arrived := sent - lost
			flows[i].retrans += lost + congDrops
			if lost > 0 || congDrops >= 1 {
				flows[i].lossInWin = true
			}
			deliveredNow := arrived * float64(path.MSS)
			flows[i].remaining -= deliveredNow
			if bps := deliveredNow * 8 / tick; bps > results[i].PeakBps {
				results[i].PeakBps = bps
			}
			if flows[i].remaining <= 0 {
				over := -flows[i].remaining
				dt := tick
				if deliveredNow > 0 {
					dt -= over / deliveredNow * tick
				}
				results[i].Duration = t + dt
				results[i].Retransmit = int64(math.Round(flows[i].retrans))
				flows[i].done = true
				active--
			}
		}
		for i := range flows {
			if flows[i].done {
				continue
			}
			flows[i].sinceCtrl += tick
			if flows[i].sinceCtrl >= ctrls[i].Interval()-1e-12 {
				if flows[i].lossInWin {
					results[i].LossEvents++
				}
				ctrls[i].OnInterval(flows[i].lossInWin)
				flows[i].sinceCtrl = 0
				flows[i].lossInWin = false
			}
		}
		t += tick
		if t > 100*sim.Day {
			panic("transport: shared transfer did not converge")
		}
	}
	return results
}

// sawtooth ramps its rate linearly from 0 to the path's packet rate in the
// given number of control intervals and starts over, blind to loss: the
// per-tick mean sweeps through the Knuth range, across the mean 50 switch
// to the normal branch and back, changing every tick.
type sawtooth struct{ pps, step, max float64 }

func newSawtooth(path transport.Path, steps float64) *sawtooth {
	max := path.PacketsPerSec()
	return &sawtooth{step: max / steps, max: max}
}

func (s *sawtooth) Name() string           { return "sawtooth" }
func (s *sawtooth) Interval() sim.Duration { return udt.SYN }
func (s *sawtooth) RatePps() float64       { return s.pps }
func (s *sawtooth) OnInterval(bool) {
	if s.pps += s.step; s.pps > s.max {
		s.pps = 0
	}
}

// Controller kinds of the fuzz target.
const (
	kindUDT = iota
	kindRenoSocketBuf
	kindRenoSSH
	kindRenoUnwindowed
	kindSawtooth
	kindSlowSawtooth
	numKinds
)

func newController(kind uint8, path transport.Path) transport.Controller {
	switch kind % numKinds {
	case kindUDT:
		return udt.NewRateControl(path)
	case kindRenoSocketBuf:
		return tcpmodel.NewReno(path, udr.RsyncSocketBufBytes)
	case kindRenoSSH:
		return tcpmodel.NewReno(path, udr.SSHWindowBytes)
	case kindRenoUnwindowed:
		return tcpmodel.NewReno(path, 0)
	case kindSawtooth:
		return newSawtooth(path, 512)
	default:
		// Consecutive means differ by parts in 10⁵: near enough that a memo
		// matching within a tolerance would reuse a stale exponential, and
		// at means of a few packets that changes a draw.
		return newSawtooth(path, 65536)
	}
}

// tickBudget bounds a fuzz execution: it fails the transfer with a panic
// once the controller has been advanced maxTicks times, which a run and
// its reference then have to do on the same tick.
type tickBudget struct {
	transport.Controller
	left int
}

const maxTicks = 2_000_000 // the 1.1 TB UDR cells take 1.2 M

func (b *tickBudget) OnInterval(loss bool) {
	if b.left--; b.left < 0 {
		panic("tick budget spent")
	}
	b.Controller.OnInterval(loss)
}

// outcome is everything a transfer leaves behind: its result or its panic,
// and where it left the RNG (which pins the number of draws).
type outcome struct {
	res      transport.Result
	panicked any
	nextDraw uint64
}

type simulateFunc func(*sim.RNG, transport.Path, transport.Controller, int64, transport.Caps) transport.Result

func runTransfer(simulate simulateFunc, seed uint64, path transport.Path, kind uint8, totalBytes int64, caps transport.Caps) (o outcome) {
	rng := sim.NewRNG(seed)
	defer func() {
		o.panicked = recover()
		o.nextDraw = rng.Uint64()
	}()
	ctrl := &tickBudget{Controller: newController(kind, path), left: maxTicks}
	o.res = simulate(rng, path, ctrl, totalBytes, caps)
	return o
}

// FuzzSimulateMatchesReference holds Simulate to referenceSimulate over
// UDT, Reno and a loss-blind sawtooth: every Result field equal as a
// float (==, no tolerance), the same panic if any, and the RNG left at
// the same draw.
func FuzzSimulateMatchesReference(f *testing.F) {
	// The ten Table 3 cells at seed 2012: five tool/cipher rows × two sizes.
	table3 := experiments.ChicagoLVOCPath(2012)
	for _, cfg := range udr.Table3Configs() {
		kind := uint8(kindUDT)
		switch {
		case cfg.Tool == udr.ToolRsync && cfg.Cipher == cipher.None:
			kind = kindRenoSocketBuf
		case cfg.Tool == udr.ToolRsync:
			kind = kindRenoSSH
		}
		for _, gigabytes := range []float64{float64(108<<30) / 1e9, float64(int64(11)<<40/10) / 1e9} {
			f.Add(uint64(2012), -math.Log10(table3.Loss), 10_000.0, cfg.Caps().Min()/1e6, gigabytes, kind)
		}
	}
	f.Add(uint64(1), 0.0, 10_000.0, 753.0, 20.0, uint8(kindUDT))           // lossless: no draw at all
	f.Add(uint64(2), 4.0, 10_000.0, 0.0, 20.0, uint8(kindUDT))             // Loss 1e-4, mean moves every tick
	f.Add(uint64(3), 0.0, 10_000.0, 0.0, 50.0, uint8(kindUDT))             // uncapped: overflows the 10G bottleneck (congDrops)
	f.Add(uint64(4), 9.0, 10_000.0, 753.0, 1e-6, uint8(kindUDT))           // one tick
	f.Add(uint64(5), 2.0, 10_000.0, 0.0, 20.0, uint8(kindSawtooth))        // mean 0 → 86 → 0: crosses 50 both ways
	f.Add(uint64(6), 3.0, 1_000.0, 0.0, 1.0, uint8(kindRenoUnwindowed))    // Reno in loss-limited AIMD
	f.Add(uint64(7), 1.0, 1.0, 0.0, 2000.0, uint8(kindRenoUnwindowed))     // spends the tick budget
	f.Add(uint64(8), 12.0, 100_000.0, 400.0, 5.0, uint8(kindRenoSSH))      // window-pinned: one mean for the whole transfer
	f.Add(uint64(9), 2.5, 10_000.0, 9_000.0, 10.0, uint8(kindSawtooth))    // sawtooth clipped by a cap: runs of equal means
	f.Add(uint64(10), 0.31, 10_000.0, 0.0, 0.01, uint8(kindSawtooth))      // half the packets lost
	f.Add(uint64(11), 5.0, 40_000.0, 0.0, 100.0, uint8(kindRenoSocketBuf)) // window below the BDP
	f.Add(uint64(12), 3.0, 10_000.0, 0.0, 450.0, uint8(kindSlowSawtooth))  // mean creeps 0 → 8.6: exactness of the memo key

	f.Fuzz(func(t *testing.T, seed uint64, lossExp, bwMbit, capMbit, gigabytes float64, kind uint8) {
		// Loss 10^-lossExp in (0, 0.5], or a lossless path for lossExp <= 0.
		loss := 0.0
		if lossExp > 0 {
			loss = math.Min(math.Pow(10, -lossExp), 0.5)
		}
		if !(bwMbit >= 1 && bwMbit <= 1e6) || !(capMbit >= 0 && capMbit <= 1e6) || !(gigabytes > 0 && gigabytes <= 2000) {
			t.Skip("outside the modelled range")
		}
		path := transport.Path{BandwidthBps: bwMbit * 1e6, RTT: table3.RTT, Loss: loss, MSS: transport.DefaultMSS}
		caps := transport.Caps{SenderBps: capMbit * 1e6} // 0 = uncapped
		totalBytes := int64(gigabytes * 1e9)
		if totalBytes < 1 {
			totalBytes = 1
		}
		want := runTransfer(referenceSimulate, seed, path, kind, totalBytes, caps)
		got := runTransfer(transport.Simulate, seed, path, kind, totalBytes, caps)
		if got != want {
			t.Fatalf("Simulate diverged from the reference\n got  %+v\n want %+v", got, want)
		}
	})
}

// TestSimulateSharedMatchesReference is the same bit-for-bit, draw-for-draw
// check for the shared loop, which now draws through one lossSampler per
// flow: a single flow, and four with mixed control intervals and sizes
// under proportional overflow.
func TestSimulateSharedMatchesReference(t *testing.T) {
	path := experiments.ChicagoLVOCPath(2012)
	lossy := path
	lossy.Loss = 1e-5
	for _, tc := range []struct {
		name  string
		path  transport.Path
		kinds []uint8
		sizes []int64
		caps  transport.Caps
	}{
		{"n1-capped", path, []uint8{kindUDT}, []int64{20 << 30}, transport.Caps{SenderBps: 753e6}},
		{"n1-uncapped-lossy", lossy, []uint8{kindUDT}, []int64{20 << 30}, transport.Caps{}},
		{"n4-udt-overflow", lossy, []uint8{kindUDT, kindUDT, kindUDT, kindUDT}, []int64{8 << 30, 4 << 30, 2 << 30, 1 << 30}, transport.Caps{}},
		{"n4-mixed-intervals", lossy, []uint8{kindUDT, kindRenoSocketBuf, kindSawtooth, kindRenoSSH}, []int64{4 << 30, 1 << 30, 2 << 30, 1 << 30}, transport.Caps{SenderBps: 4e9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shared func(*sim.RNG, transport.Path, []transport.Controller, []int64, transport.Caps) []transport.Result) ([]transport.Result, uint64) {
				rng := sim.NewRNG(2012)
				ctrls := make([]transport.Controller, len(tc.kinds))
				for i, k := range tc.kinds {
					ctrls[i] = newController(k, tc.path)
				}
				return shared(rng, tc.path, ctrls, tc.sizes, tc.caps), rng.Uint64()
			}
			want, wantDraw := run(referenceSimulateShared)
			got, gotDraw := run(transport.SimulateShared)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("flow %d diverged from the reference\n got  %+v\n want %+v", i, got[i], want[i])
				}
			}
			if gotDraw != wantDraw {
				t.Errorf("RNG left at a different draw: next Uint64 %#x, reference %#x", gotDraw, wantDraw)
			}
		})
	}
}

// TestSimulateAllocatesNothing gates the tick loop's allocation count: the
// sampler is a stack value and the controller is the caller's.
func TestSimulateAllocatesNothing(t *testing.T) {
	path := experiments.ChicagoLVOCPath(2012)
	rng := sim.NewRNG(2012)
	ctrl := udt.NewRateControl(path)
	caps := transport.Caps{SenderBps: udr.UDRSenderCPUBps}
	if n := testing.AllocsPerRun(5, func() {
		transport.Simulate(rng, path, ctrl, 1<<30, caps)
	}); n != 0 {
		t.Fatalf("Simulate allocated %v times per 1 GB transfer, want 0", n)
	}
}
