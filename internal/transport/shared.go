package transport

import (
	"fmt"
	"math"

	"osdc/internal/sim"
)

// SimulateShared runs several transfers concurrently over one bottleneck
// path. Where Simulate gives each flow the path to itself, here the flows'
// offered rates are summed each tick; when the sum exceeds the bottleneck,
// the excess is dropped in proportion to each flow's share of the offered
// load (a fluid model of a FIFO queue overflowing), and each flow's
// controller sees the loss in its own control interval. This is the
// contention regime the single-flow model cannot express: N loss-reactive
// flows discovering their fair share of a 10G WAN.
//
// ctrls[i] moves totalBytes[i]; caps apply per flow (each flow has its own
// disks and cipher pipeline). Flows that finish stop offering load. The
// returned Results are per flow, with Duration the virtual time at which
// that flow completed.
//
// Simulate is this loop over one flow, so a one-flow SimulateShared is
// Simulate bit for bit, RNG draws included.
func SimulateShared(rng *sim.RNG, path Path, ctrls []Controller, totalBytes []int64, caps Caps) []Result {
	if len(ctrls) == 0 || len(ctrls) != len(totalBytes) {
		panic(fmt.Sprintf("transport: %d controllers for %d transfer sizes", len(ctrls), len(totalBytes)))
	}
	flows := make([]flow, len(ctrls))
	for i, c := range ctrls {
		flows[i] = newFlow(c, totalBytes[i])
	}
	simulate(rng, path, flows, caps)
	results := make([]Result, len(flows))
	for i := range flows {
		results[i] = flows[i].res
	}
	return results
}

// flow is one transfer in the tick loop.
type flow struct {
	ctrl     Controller
	quiet    quietController // ctrl, if it can take loss-free intervals in bulk
	interval sim.Duration
	res      Result
	total    float64
	// delivered counts up to total; the final tick's overshoot is removed
	// from the duration at completion.
	delivered float64
	// Fractional lost packets accumulate across ticks and are rounded once,
	// at completion; truncating per tick undercounts slow flows whose
	// per-tick loss is < 1 packet.
	retrans   float64
	pps       float64 // this tick's offered rate, packets/s
	sinceCtrl sim.Duration
	loss      lossSampler
	capped    bool // pps is the caps' rate, not the controller's
	lossInWin bool
	done      bool
}

func newFlow(ctrl Controller, totalBytes int64) flow {
	if totalBytes <= 0 {
		panic("transport: totalBytes must be positive")
	}
	dt := ctrl.Interval()
	if dt <= 0 {
		// Nothing would be sent and t would never advance: the loop would
		// never end.
		panic("transport: controller has non-positive interval")
	}
	quiet, _ := ctrl.(quietController)
	return flow{
		ctrl:     ctrl,
		quiet:    quiet,
		interval: dt,
		res:      Result{Protocol: ctrl.Name(), Bytes: totalBytes},
		total:    float64(totalBytes),
	}
}

// simulate is the tick loop. The tick is the fastest control interval; a
// slower controller is advanced once its own interval has passed. Each
// tick, every live flow offers min(controller rate, caps), drawn in index
// order; flows finish at the tick that delivers their last byte.
func simulate(rng *sim.RNG, path Path, flows []flow, caps Caps) {
	if path.MSS <= 0 {
		path.MSS = DefaultMSS
	}
	capBps := caps.Min()
	pktBits := float64(path.MSS * 8)
	bottleneckPps := path.BandwidthBps / pktBits
	capPps := capBps / pktBits
	mss := float64(path.MSS)
	tick := math.Inf(1)
	for i := range flows {
		tick = math.Min(tick, flows[i].interval)
	}
	active := len(flows)
	// Only a lone flow runs quiet, and once alone it stays alone: one held
	// tick serves the whole loop.
	held := heldTick{rate: math.NaN()}
	var t sim.Duration
	for active > 0 {
		var offered float64
		var last *flow
		for i := range flows {
			f := &flows[i]
			if f.done {
				continue
			}
			// Application-side caps throttle the send loop; that is not
			// loss, the sender simply paces slower.
			f.pps = f.ctrl.RatePps()
			if f.capped = capBps < f.pps*pktBits; f.capped {
				f.pps = capPps
			}
			offered += f.pps
			last = f
		}
		// A flow is held when its caps bind or its controller is steady:
		// its rate, and with it the tick, is the same until a loss. A lone
		// flow advanced every tick whose controller can take its loss-free
		// intervals in bulk runs held ticks quietly.
		if f := last; active == 1 && f.quiet != nil && f.interval == tick && (f.capped || f.quiet.Steady()) {
			if f.pps != held.rate {
				held.hold(f.pps, tick, path, bottleneckPps)
			}
			if held.quiet {
				// A quiet run: the loss-free held ticks in bulk. It ends on
				// a draw Knuth's loop would not stop at, which the general
				// tick below then finishes as a loss.
				var n int
				n, f.delivered, t, f.loss.first = held.quietRun(rng, f.delivered, f.total, t)
				f.quiet.OnQuietIntervals(n)
				if t > 100*sim.Day {
					panic(notConverged)
				}
				if f.delivered >= f.total {
					f.finish(t)
					break
				}
			}
		}
		for i := range flows {
			f := &flows[i]
			if f.done {
				continue
			}
			// Pushing above the bottleneck overflows its queue: the excess
			// is congestion loss, dropped in proportion to each flow's
			// share of the offered load, that its controller must react to.
			// A lone flow's share is x/x = 1 exactly.
			eff, congDrops := f.pps, 0.0
			if offered > bottleneckPps {
				share := f.pps / offered
				congDrops = (offered - bottleneckPps) * share * tick
				eff = bottleneckPps * share
			}
			sent := eff * tick // packets that actually traverse the bottleneck
			lost := f.loss.draw(rng, sent*path.Loss)
			if lost > sent {
				lost = sent
			}
			if lost > 0 || congDrops >= 1 {
				f.lossInWin = true
			}
			// Every packet that arrives delivers a unique useful chunk:
			// dropped chunks are simply re-sent from future sending budget,
			// so counting arrivals as goodput and drops as retransmissions
			// is exact in the steady state (duplicates are rare enough to
			// ignore).
			f.retrans += lost + congDrops
			deliveredNow := (sent - lost) * mss
			f.delivered += deliveredNow
			if f.sinceCtrl += tick; f.sinceCtrl >= f.interval-1e-12 {
				if f.lossInWin {
					f.res.LossEvents++
				}
				f.ctrl.OnInterval(f.lossInWin)
				f.sinceCtrl, f.lossInWin = 0, false
			}
			if f.delivered >= f.total {
				f.finish(t + tick)
				active--
			}
		}
		t += tick
		if t > 100*sim.Day {
			panic(notConverged)
		}
	}
}

// finish completes f at t, the end of the tick that delivered its last
// byte. The overshoot of that tick is removed at the flow's average rate,
// for a fair duration.
func (f *flow) finish(t sim.Duration) {
	if over := f.delivered - f.total; over > 0 {
		if rate := f.delivered / t; rate > 0 {
			t -= over / rate
		}
	}
	f.res.Duration = t
	f.res.Retransmit = int64(math.Round(f.retrans))
	f.done = true
}

// JainFairness computes Jain's fairness index over per-flow throughputs:
// 1.0 means perfectly equal shares, 1/n means one flow starved the rest.
func JainFairness(results []Result) float64 {
	var sum, sumsq float64
	for _, r := range results {
		x := r.ThroughputBps()
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(results)) * sumsq)
}
