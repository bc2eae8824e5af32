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
// Random tail loss is drawn through the same lossSampler as Simulate, one
// per flow. The cap clamp, overflow and final-tick overshoot steps are
// this loop's own; TestSharedSingleFlowMatchesDedicated pins the
// single-flow case to the dedicated model within 10%.
func SimulateShared(rng *sim.RNG, path Path, ctrls []Controller, totalBytes []int64, caps Caps) []Result {
	if len(ctrls) == 0 || len(ctrls) != len(totalBytes) {
		panic(fmt.Sprintf("transport: %d controllers for %d transfer sizes", len(ctrls), len(totalBytes)))
	}
	if path.MSS <= 0 {
		path.MSS = DefaultMSS
	}
	pktBits := float64(path.MSS * 8)
	bottleneckPps := path.BandwidthBps / pktBits
	capPps := math.Inf(1)
	if c := caps.Min(); !math.IsInf(c, 1) {
		capPps = c / pktBits
	}

	// The global tick is the fastest control interval; slower controllers
	// accumulate ticks and are advanced once per own interval.
	tick := math.Inf(1)
	for i, c := range ctrls {
		if c.Interval() <= 0 {
			panic(fmt.Sprintf("transport: controller %d has non-positive interval", i))
		}
		tick = math.Min(tick, c.Interval())
	}

	type flowState struct {
		loss      lossSampler
		remaining float64
		// retrans accumulates fractional lost packets across ticks; the
		// per-tick losses of a slow flow are routinely < 1 packet, so
		// truncating every tick would systematically undercount. Rounded
		// into Result.Retransmit once, at flow completion.
		retrans   float64
		sinceCtrl sim.Duration
		lossInWin bool
		done      bool
	}
	flows := make([]flowState, len(ctrls))
	results := make([]Result, len(ctrls))
	active := len(ctrls)
	for i := range ctrls {
		if totalBytes[i] <= 0 {
			panic("transport: totalBytes must be positive")
		}
		flows[i].remaining = float64(totalBytes[i])
		results[i] = Result{Protocol: ctrls[i].Name(), Bytes: totalBytes[i]}
	}

	offered := make([]float64, len(ctrls))
	var t sim.Duration
	for active > 0 {
		// Offered load this tick.
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
		// Proportional overflow at the shared bottleneck.
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
			lost := flows[i].loss.draw(rng, sent*path.Loss)
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
				// Credit back the final-tick overshoot for a fair duration.
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
		// Advance each live controller at its own cadence.
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
