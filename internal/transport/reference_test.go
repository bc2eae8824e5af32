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
// (free-function poisson, Interval() and the cap division every tick),
// kept verbatim as the oracle the optimised loop must match bit for bit
// and draw for draw. The edits: the interval guard the old loop lacked, so
// a bad fuzz input fails instead of hanging, and no peak goodput, which
// Result no longer carries.
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

// referenceSimulateShared is the shared loop's rules written out one tick
// at a time, with referencePoisson and without the memo or quiet runs.
// Each tick every live flow offers its controller's rate, clamped by the
// caps; above the bottleneck the excess is dropped in proportion to each
// flow's share of the offered load; a controller is advanced once its own
// interval has passed, on a flow's final tick too; and a finished flow's
// final-tick overshoot is removed at its average rate.
func referenceSimulateShared(rng *sim.RNG, path transport.Path, ctrls []transport.Controller, totalBytes []int64, caps transport.Caps) []transport.Result {
	if len(ctrls) == 0 || len(ctrls) != len(totalBytes) {
		panic(fmt.Sprintf("transport: %d controllers for %d transfer sizes", len(ctrls), len(totalBytes)))
	}
	tick := math.Inf(1)
	for i, c := range ctrls {
		if totalBytes[i] <= 0 {
			panic("transport: totalBytes must be positive")
		}
		if c.Interval() <= 0 {
			panic("transport: controller has non-positive interval")
		}
		tick = math.Min(tick, c.Interval())
	}
	if path.MSS <= 0 {
		path.MSS = transport.DefaultMSS
	}
	capBps := caps.Min()
	pktBits := float64(path.MSS * 8)
	bottleneckPps := path.BandwidthBps / pktBits
	type flowState struct {
		pps, delivered, retrans float64
		sinceCtrl               sim.Duration
		lossInWin, done         bool
	}
	flows := make([]flowState, len(ctrls))
	results := make([]transport.Result, len(ctrls))
	for i, c := range ctrls {
		results[i] = transport.Result{Protocol: c.Name(), Bytes: totalBytes[i]}
	}
	var t sim.Duration
	for active := len(ctrls); active > 0; {
		var offered float64
		for i := range flows {
			if flows[i].done {
				continue
			}
			pps := ctrls[i].RatePps()
			if capBps < pps*pktBits {
				pps = capBps / pktBits
			}
			flows[i].pps = pps
			offered += pps
		}
		for i := range flows {
			f := &flows[i]
			if f.done {
				continue
			}
			eff, congDrops := f.pps, 0.0
			if offered > bottleneckPps {
				share := f.pps / offered
				congDrops = (offered - bottleneckPps) * share * tick
				eff = bottleneckPps * share
			}
			sent := eff * tick
			lost := referencePoisson(rng, sent*path.Loss)
			if lost > sent {
				lost = sent
			}
			if lost > 0 || congDrops >= 1 {
				f.lossInWin = true
			}
			f.retrans += lost + congDrops
			deliveredNow := (sent - lost) * float64(path.MSS)
			f.delivered += deliveredNow
			f.sinceCtrl += tick
			if f.sinceCtrl >= ctrls[i].Interval()-1e-12 {
				if f.lossInWin {
					results[i].LossEvents++
				}
				ctrls[i].OnInterval(f.lossInWin)
				f.sinceCtrl, f.lossInWin = 0, false
			}
			if total := float64(totalBytes[i]); f.delivered >= total {
				end := t + tick
				if over := f.delivered - total; over > 0 {
					if rate := f.delivered / end; rate > 0 {
						end -= over / rate
					}
				}
				results[i].Duration = end
				results[i].Retransmit = int64(math.Round(f.retrans))
				f.done = true
				active--
			}
		}
		t += tick
		if t > 100*sim.Day {
			panic("transport: transfer did not converge (rate stuck near zero?)")
		}
	}
	return results
}

// FuzzLossSamplerMatchesKnuth holds the sampler, memo, carried stopping
// draw and first-uniform shortcut included, to referencePoisson: over
// ticks whose mean alternates between two values, the same k every tick
// and the RNG left at the same draw. With carry set, every third tick
// starts the way a quiet run ends one: a uniform is drawn first and,
// when Knuth would not stop at it, handed over.
func FuzzLossSamplerMatchesKnuth(f *testing.F) {
	for _, m := range []float64{1e-17, 3e-8, 1e-5, 0.25, 1, 49.9, 50} {
		f.Add(uint64(2012), m, m, false, uint8(64))
		f.Add(uint64(7), m, m, true, uint8(64))
	}
	f.Add(uint64(1), 0.25, 3.0, false, uint8(200)) // alternating: the memo misses every tick
	f.Add(uint64(2), 1e-5, 0.7, true, uint8(200))
	f.Add(uint64(3), 0.5, 0.5+0x1p-52, true, uint8(200)) // means one ulp apart
	f.Add(uint64(4), 49.9, 200.0, false, uint8(50))      // Knuth and the normal branch
	f.Fuzz(func(t *testing.T, seed uint64, m1, m2 float64, carry bool, ticks uint8) {
		if math.IsNaN(m1) || math.IsNaN(m2) || math.IsInf(m1, 0) || math.IsInf(m2, 0) {
			t.Skip("not a mean")
		}
		rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
		var s transport.LossSampler
		for i := 0; i < int(ticks); i++ {
			m := m1
			if i%2 == 1 {
				m = m2
			}
			want := referencePoisson(ref, m)
			var got float64
			if carry && i%3 == 0 && m > 0 && m <= 50 {
				if u := rng.Float64(); u > math.Exp(-m) {
					s.Carry(u)
					got = s.Draw(rng, m)
				}
			} else {
				got = s.Draw(rng, m)
			}
			if got != want {
				t.Fatalf("tick %d, mean %v: k = %v, reference %v", i, m, got, want)
			}
		}
		if got, want := rng.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("RNG left at a different draw: next Uint64 %#x, reference %#x", got, want)
		}
	})
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

// toggle is steady between losses, and each loss switches it between two
// rates: the rate Simulate holds changes from one quiet run to the next.
type toggle struct {
	rates [2]float64
	i     int
}

func newToggle(path transport.Path) *toggle {
	max := path.PacketsPerSec()
	return &toggle{rates: [2]float64{max / 2, max / 5}}
}

func (g *toggle) Name() string           { return "toggle" }
func (g *toggle) Interval() sim.Duration { return udt.SYN }
func (g *toggle) RatePps() float64       { return g.rates[g.i] }
func (g *toggle) OnQuietIntervals(int)   {}
func (g *toggle) Steady() bool           { return true }
func (g *toggle) OnInterval(loss bool) {
	if loss {
		g.i ^= 1
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
	kindToggle
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
	case kindToggle:
		return newToggle(path)
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
	left       int
	longestRun int
}

const maxTicks = 3_000_000 // the 1.1 TB udr (blowfish) cell takes 2.44 M

const budgetSpent = "tick budget spent"

func (b *tickBudget) OnInterval(loss bool) {
	if b.left--; b.left < 0 {
		panic(budgetSpent)
	}
	b.Controller.OnInterval(loss)
}

// quietBudget is tickBudget over a controller with quiet runs, whose
// OnQuietIntervals and Steady tickBudget's embedded Controller would hide:
// it keeps them visible, so Simulate takes its quiet path, and charges the
// budget one tick per interval. Simulate flushes a run only after drawing
// for all of it, so a run that overspends panics later in the RNG stream
// than the reference, with the same value. longestRun is the most
// intervals one call took.
type quietBudget struct{ *tickBudget }

func (b quietBudget) OnQuietIntervals(n int) {
	b.longestRun = max(b.longestRun, n)
	if b.left -= n; b.left < 0 {
		panic(budgetSpent)
	}
	b.Controller.(transport.QuietController).OnQuietIntervals(n)
}

func (b quietBudget) Steady() bool { return b.Controller.(transport.QuietController).Steady() }

// quietLimitBps is the slowest rate, in bits/s, at which Simulate may hold
// kind's flow in a quiet run: its caps, or the rate its controller is
// steady at (a Reno window at its cap, the toggle's lower rate). It is
// +Inf when the flow is never held.
func quietLimitBps(kind uint8, path transport.Path, caps transport.Caps) float64 {
	if _, ok := newController(kind, path).(transport.QuietController); !ok {
		return math.Inf(1)
	}
	limit := caps.Min()
	switch kind % numKinds {
	case kindRenoSocketBuf:
		limit = math.Min(limit, udr.RsyncSocketBufBytes*8/path.RTT)
	case kindRenoSSH:
		limit = math.Min(limit, udr.SSHWindowBytes*8/path.RTT)
	case kindToggle:
		limit = math.Min(limit, newToggle(path).rates[1]*float64(path.MSS*8))
	}
	return limit
}

// outcome is everything a transfer leaves behind: its result or its panic,
// and where it left the RNG (which pins the number of draws).
type outcome struct {
	res      transport.Result
	panicked any
	nextDraw uint64
}

// TestRsyncRowsRunQuiet: the Table 3 rsync cells sit at their window cap,
// so through the fuzz harness's budget wrapper they reach
// OnQuietIntervals with runs longer than one interval, and still match the
// reference.
func TestRsyncRowsRunQuiet(t *testing.T) {
	path := experiments.ChicagoLVOCPath(2012)
	for _, cfg := range udr.Table3Configs() {
		if cfg.Tool != udr.ToolRsync {
			continue
		}
		kind := table3Kind(cfg)
		var longest int
		simulate := func(rng *sim.RNG, p transport.Path, ctrl transport.Controller, n int64, caps transport.Caps) transport.Result {
			defer func() { longest = ctrl.(quietBudget).longestRun }()
			return transport.Simulate(rng, p, ctrl, n, caps)
		}
		got := runTransfer(simulate, 2012, path, kind, 108<<30, cfg.Caps())
		if want := runTransfer(referenceSimulate, 2012, path, kind, 108<<30, cfg.Caps()); got != want {
			t.Fatalf("%s diverged from the reference\n got  %+v\n want %+v", cfg, got, want)
		}
		if longest <= 1 {
			t.Errorf("%s: longest quiet run %d intervals, want > 1", cfg, longest)
		}
	}
}

type simulateFunc func(*sim.RNG, transport.Path, transport.Controller, int64, transport.Caps) transport.Result

func runTransfer(simulate simulateFunc, seed uint64, path transport.Path, kind uint8, totalBytes int64, caps transport.Caps) (o outcome) {
	rng := sim.NewRNG(seed)
	defer func() {
		o.panicked = recover()
		o.nextDraw = rng.Uint64()
	}()
	o.res = simulate(rng, path, budgeted(kind, path, maxTicks), totalBytes, caps)
	return o
}

// budgeted is kind's controller on a budget of ticks, its quiet runs kept
// visible.
func budgeted(kind uint8, path transport.Path, ticks int) transport.Controller {
	budget := &tickBudget{Controller: newController(kind, path), left: ticks}
	if _, ok := budget.Controller.(transport.QuietController); ok {
		return quietBudget{budget}
	}
	return budget
}

// table3Kind is the controller kind of a Table 3 row.
func table3Kind(cfg udr.Config) uint8 {
	switch {
	case cfg.Tool == udr.ToolRsync && cfg.Cipher == cipher.None:
		return kindRenoSocketBuf
	case cfg.Tool == udr.ToolRsync:
		return kindRenoSSH
	}
	return kindUDT
}

// table3Sizes are Table 3's two transfer sizes: 108 GB and 1.1 TB.
var table3Sizes = []int64{108 << 30, int64(11) << 40 / 10}

// FuzzSimulateMatchesReference holds Simulate to referenceSimulate over
// UDT, Reno, a loss-blind sawtooth and a toggling steady rate: every
// Result field equal as a float (==, no tolerance), the same panic if any,
// and the RNG left at the same draw. A flow held below the link, by its
// cap or at a steady rate, takes Simulate's quiet runs; when such a
// transfer spends the tick budget, only the panic is compared (see
// quietBudget).
func FuzzSimulateMatchesReference(f *testing.F) {
	// The ten Table 3 cells at seed 2012: five tool/cipher rows × two sizes.
	table3 := experiments.ChicagoLVOCPath(2012)
	for _, cfg := range udr.Table3Configs() {
		for _, size := range table3Sizes {
			f.Add(uint64(2012), -math.Log10(table3.Loss), 10_000.0, cfg.Caps().Min()/1e6, float64(size)/1e9, table3Kind(cfg))
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
	// Quiet runs (seed 1 above is a lossless one: it never draws).
	f.Add(uint64(0), 2.333333333333332, 100_050.0, 721.0, 7e-06, uint8(kindUDT)) // first draw of a run is a loss
	f.Add(uint64(13), 2.8, 100_000.0, 721.0, 1.0, uint8(kindUDT))                // mean ≈ 1 per held tick: runs end in losses of k ≥ 2
	f.Add(uint64(14), 6.0, 10_000.0, 400.0, 5.0, uint8(kindUDT))                 // mean 3e-4: the transfer ends inside a run
	f.Add(uint64(15), 7.5, 1_000.0, 990.0, 50.0, uint8(kindUDT))                 // cap 1 % under the link: runs reach capacity, and every loss drops the rate below the cap
	f.Add(uint64(16), 6.0, 10_000.0, 0.0, 20.0, uint8(kindToggle))               // each loss changes the held rate
	f.Add(uint64(17), 6.0, 10_000.0, 3_000.0, 20.0, uint8(kindToggle))           // held by the cap at one rate, steady at the other

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
		limit := quietLimitBps(kind, path, caps)
		quiet := !math.IsInf(limit, 1)
		// A quiet run charges the budget only when it ends, so bound it by
		// the ticks the transfer needs at the slowest held rate.
		interval := newController(kind, path).Interval()
		if quiet && float64(totalBytes)*8/math.Min(path.BandwidthBps, limit)/interval > maxTicks {
			t.Skip("a quiet run could outlast the tick budget")
		}
		want := runTransfer(referenceSimulate, seed, path, kind, totalBytes, caps)
		got := runTransfer(transport.Simulate, seed, path, kind, totalBytes, caps)
		if quiet && want.panicked == budgetSpent {
			got.nextDraw, want.nextDraw = 0, 0
		}
		if got != want {
			t.Fatalf("Simulate diverged from the reference\n got  %+v\n want %+v", got, want)
		}
	})
}

// maxSharedFlows bounds FuzzSimulateSharedMatchesReference's flow count,
// and maxSharedTicks its ticks, summed over the flows.
const (
	maxSharedFlows = 8
	maxSharedTicks = 1 << 20
)

// sharedOutcome is outcome for a set of up to maxSharedFlows flows.
type sharedOutcome struct {
	res      [maxSharedFlows]transport.Result
	panicked any
	nextDraw uint64
}

type sharedFunc func(*sim.RNG, transport.Path, []transport.Controller, []int64, transport.Caps) []transport.Result

// runShared runs one flow of each kind, each on an even share of
// maxSharedTicks shared ticks: a flow whose interval is m ticks may take
// 1/m as many intervals.
func runShared(shared sharedFunc, seed uint64, path transport.Path, kinds []uint8, sizes []int64, caps transport.Caps) (o sharedOutcome) {
	rng := sim.NewRNG(seed)
	defer func() {
		o.panicked = recover()
		o.nextDraw = rng.Uint64()
	}()
	tick := math.Inf(1)
	for _, k := range kinds {
		tick = math.Min(tick, newController(k, path).Interval())
	}
	ctrls := make([]transport.Controller, len(kinds))
	for i, k := range kinds {
		intervals := float64(maxSharedTicks/len(kinds)) * tick / newController(k, path).Interval()
		ctrls[i] = budgeted(k, path, max(int(intervals), 1))
	}
	copy(o.res[:], shared(rng, path, ctrls, sizes, caps))
	return o
}

// FuzzSimulateSharedMatchesReference holds SimulateShared to
// referenceSimulateShared over 1 to 8 flows of mixed controllers (UDT,
// Reno, the sawtooths and the toggle), and so mixed control intervals
// whenever the RTT is not UDT's SYN, with a size per flow and caps shared
// by all: every Result field equal as a float, the same panic if any, and
// the RNG left at the same draw. A lone flow must also match
// referenceSimulate. spec holds two bytes a flow, its kind and its size in
// units of unitMiB less one. As in FuzzSimulateMatchesReference, the last
// live flow may take quiet runs, and a quiet transfer that spends its tick
// budget compares only the panic.
func FuzzSimulateSharedMatchesReference(f *testing.F) {
	table3 := experiments.ChicagoLVOCPath(2012)
	lossExp, rtt := -math.Log10(table3.Loss), table3.RTT
	// One UDT flow capped, and one uncapped on a lossy path; four UDT
	// flows overflowing the link; four of mixed intervals under a cap.
	f.Add(uint64(2012), lossExp, 10_000.0, 753.0, rtt, 1024.0, []byte{kindUDT, 19})
	f.Add(uint64(2012), 5.0, 10_000.0, 0.0, rtt, 1024.0, []byte{kindUDT, 19})
	f.Add(uint64(2012), 5.0, 10_000.0, 0.0, rtt, 1024.0, []byte{kindUDT, 7, kindUDT, 3, kindUDT, 1, kindUDT, 0})
	f.Add(uint64(2012), 5.0, 10_000.0, 4_000.0, rtt, 1024.0, []byte{kindUDT, 3, kindRenoSocketBuf, 0, kindSawtooth, 1, kindRenoSSH, 0})
	// Two flows under the link, held by the cap: the survivor runs quiet.
	f.Add(uint64(5), 6.0, 10_000.0, 3_000.0, rtt, 512.0, []byte{kindUDT, 0, kindUDT, 9})
	// The toggle outlives a UDT flow and runs quiet at each of its rates.
	f.Add(uint64(6), 6.0, 10_000.0, 3_000.0, rtt, 512.0, []byte{kindToggle, 9, kindUDT, 0})
	// RTT under the SYN: Reno sets the tick.
	f.Add(uint64(2), 4.0, 1_000.0, 0.0, 0.004, 64.0, []byte{kindRenoUnwindowed, 3, kindUDT, 3})
	// Lossless: congestion drops only.
	f.Add(uint64(3), 0.0, 10_000.0, 0.0, 0.025, 256.0, []byte{kindUDT, 0, kindUDT, 1, kindUDT, 2, kindUDT, 3, kindUDT, 4, kindUDT, 5, kindUDT, 6, kindUDT, 7})
	f.Add(uint64(4), 3.0, 10_000.0, 0.0, rtt, 128.0, []byte{kindSlowSawtooth, 2, kindSawtooth, 0})
	// Flows held together, by a cap or at their windows: only the last
	// may run quiet.
	f.Add(uint64(7), 6.0, 10_000.0, 200.0, rtt, 64.0, []byte{kindUDT, 1, kindUDT, 2})
	f.Add(uint64(9), 6.0, 10_000.0, 0.0, rtt, 512.0, []byte{kindRenoSSH, 1, kindRenoSocketBuf, 2})
	f.Fuzz(func(t *testing.T, seed uint64, lossExp, bwMbit, capMbit float64, rtt sim.Duration, unitMiB float64, spec []byte) {
		loss := 0.0
		if lossExp > 0 {
			loss = math.Min(math.Pow(10, -lossExp), 0.5)
		}
		n := min(len(spec)/2, maxSharedFlows)
		if n == 0 || !(bwMbit >= 1 && bwMbit <= 1e6) || !(capMbit >= 0 && capMbit <= 1e6) ||
			!(rtt >= 1e-3 && rtt <= 1) || !(unitMiB > 0 && unitMiB <= 1024) {
			t.Skip("outside the modelled range")
		}
		path := transport.Path{BandwidthBps: bwMbit * 1e6, RTT: rtt, Loss: loss, MSS: transport.DefaultMSS}
		caps := transport.Caps{SenderBps: capMbit * 1e6}
		kinds, sizes := make([]uint8, n), make([]int64, n)
		quiet := false
		for i := range kinds {
			kinds[i] = spec[2*i] % numKinds
			sizes[i] = max(int64(float64(spec[2*i+1])+1)*int64(unitMiB*(1<<20)), 1)
			limit := quietLimitBps(kinds[i], path, caps)
			if math.IsInf(limit, 1) {
				continue
			}
			quiet = true
			interval := newController(kinds[i], path).Interval()
			if float64(sizes[i])*8/math.Min(path.BandwidthBps, limit)/interval > float64(maxSharedTicks/n) {
				t.Skip("a quiet run could outlast the tick budget")
			}
		}
		want := runShared(referenceSimulateShared, seed, path, kinds, sizes, caps)
		got := runShared(transport.SimulateShared, seed, path, kinds, sizes, caps)
		if quiet && want.panicked == budgetSpent {
			got.nextDraw, want.nextDraw = 0, 0
		}
		if got != want {
			t.Fatalf("SimulateShared diverged from the reference\n got  %+v\n want %+v", got, want)
		}
		if n > 1 {
			return
		}
		single := runShared(func(rng *sim.RNG, path transport.Path, ctrls []transport.Controller, sizes []int64, caps transport.Caps) []transport.Result {
			return []transport.Result{referenceSimulate(rng, path, ctrls[0], sizes[0], caps)}
		}, seed, path, kinds, sizes, caps)
		if quiet && single.panicked == budgetSpent {
			single.nextDraw = 0
		}
		if got != single {
			t.Fatalf("one shared flow diverged from referenceSimulate\n got  %+v\n want %+v", got, single)
		}
	})
}

// TestSharedSingleFlowMatchesDedicated: over Table 3's ten cells, a
// one-flow SimulateShared is Simulate, every Result field equal as a float
// and the RNG left at the same draw.
func TestSharedSingleFlowMatchesDedicated(t *testing.T) {
	path := experiments.ChicagoLVOCPath(2012)
	for _, cfg := range udr.Table3Configs() {
		for _, size := range table3Sizes {
			rng := sim.NewRNG(2012)
			want := transport.Simulate(rng, path, cfg.Controller(path), size, cfg.Caps())
			wantDraw := rng.Uint64()
			rng = sim.NewRNG(2012)
			got := transport.SimulateShared(rng, path, []transport.Controller{cfg.Controller(path)}, []int64{size}, cfg.Caps())
			if got[0] != want {
				t.Errorf("%s, %d bytes: shared %+v, dedicated %+v", cfg, size, got[0], want)
			}
			if gotDraw := rng.Uint64(); gotDraw != wantDraw {
				t.Errorf("%s, %d bytes: RNG left at next draw %#x, dedicated %#x", cfg, size, gotDraw, wantDraw)
			}
		}
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
	rsync := udr.Config{Tool: udr.ToolRsync}
	reno, renoCaps := rsync.Controller(path), rsync.Caps()
	if n := testing.AllocsPerRun(5, func() {
		transport.Simulate(rng, path, reno, 1<<30, renoCaps)
	}); n != 0 {
		t.Fatalf("Simulate allocated %v times per 1 GB rsync transfer, want 0", n)
	}
}

// TestSimulateSharedAllocationsFlat: SimulateShared allocates its flow
// set and its results per call, and nothing per tick, so a transfer 16
// times larger allocates no more.
func TestSimulateSharedAllocationsFlat(t *testing.T) {
	path := experiments.ChicagoLVOCPath(2012)
	rng := sim.NewRNG(2012)
	ctrls := []transport.Controller{udt.NewRateControl(path), udt.NewRateControl(path)}
	small, large := []int64{1 << 30, 1 << 29}, []int64{16 << 30, 8 << 30}
	allocs := func(sizes []int64) float64 {
		return testing.AllocsPerRun(5, func() { transport.SimulateShared(rng, path, ctrls, sizes, transport.Caps{}) })
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("SimulateShared allocated %v times per call at 1.5 GB, %v at 24 GB", a, b)
	}
}
