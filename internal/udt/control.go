// Package udt implements the UDT protocol used by the OSDC's UDR transfer
// tool (paper §7.2).
//
// UDT (UDP-based Data Transfer) is a reliable, rate-based protocol designed
// for high bandwidth-delay-product research networks, where TCP's AIMD
// window control leaves most of a 10G path idle. This package provides
// RateControl, UDT's DAIMD congestion control law (decreasing AIMD), which
// the transport.Simulate macro driver runs for terabyte-scale transfers.
//
// The control law follows Gu & Grossman's UDT: every SYN interval (10 ms)
// the sending rate increases by inc/SYN packets per second, where
//
//	inc = max( 10^ceil(log10(B_residual_bits)) × 1.5e-6 / MSS, 1/MSS )
//
// and on a loss event the sending period is increased by 1.125× (the rate is
// multiplied by 8/9).
package udt

import (
	"math"

	"osdc/internal/sim"
	"osdc/internal/transport"
)

// SYN is UDT's fixed control interval: 0.01 seconds.
const SYN sim.Duration = 0.01

// Beta is UDT's rate-increase scaling constant (packets per bit, per the
// published control law).
const Beta = 1.5e-6

// DecreaseFactor is applied to the rate on a loss event: 8/9 ≈ 1/1.125.
const DecreaseFactor = 8.0 / 9.0

// RateControl is UDT's DAIMD law. It implements transport.Controller.
type RateControl struct {
	mss         int
	minInc      float64 // 1/MSS: the per-SYN increase floor, packets
	minIncPps   float64 // minInc/SYN: what the floor adds to the rate
	capacityPps float64 // receiver's estimated link capacity, packets/s
	ratePps     float64
	// The last decade a step was taken in: its window of residual bits,
	// [lo, hi], and its rate increase per SYN, packets/s.
	lo, hi, stepPps float64
}

var _ transport.Controller = (*RateControl)(nil)

// NewRateControl builds the controller for a path. The capacity estimate
// comes from UDT's receiver-side packet-pair measurement; in simulation we
// hand it the true bottleneck bandwidth, which is what the estimator
// converges to on a clean path.
func NewRateControl(path transport.Path) *RateControl {
	mss := path.MSS
	if mss <= 0 {
		mss = transport.DefaultMSS
	}
	minInc := 1.0 / float64(mss)
	return &RateControl{
		mss:         mss,
		minInc:      minInc,
		minIncPps:   minInc / SYN,
		capacityPps: path.BandwidthBps / float64(mss*8),
		// UDT leaves slow start after the first SYN in practice; starting at
		// a small positive rate, the DAIMD ramp reaches gigabit rates in
		// seconds.
		ratePps: 2 / SYN,
	}
}

// Name implements transport.Controller.
func (rc *RateControl) Name() string { return "udt" }

// Interval implements transport.Controller: UDT's fixed SYN.
func (rc *RateControl) Interval() sim.Duration { return SYN }

// RatePps implements transport.Controller.
func (rc *RateControl) RatePps() float64 { return rc.ratePps }

// OnInterval advances one SYN.
func (rc *RateControl) OnInterval(lossEvent bool) {
	if lossEvent {
		rc.ratePps *= DecreaseFactor
		if rc.ratePps < 1/SYN {
			rc.ratePps = 1 / SYN
		}
		return
	}
	rc.OnQuietIntervals(1)
}

// Steady implements the quiet-run contract: without loss the rate always
// grows, by at least the floor.
func (rc *RateControl) Steady() bool { return false }

// OnQuietIntervals advances n loss-free SYNs, bit for bit n calls of
// OnInterval(false). The rate only grows without loss, so once it reaches
// capacity it stays there.
func (rc *RateControl) OnQuietIntervals(n int) {
	for n > 0 && rc.capacityPps-rc.ratePps > 0 {
		var m int
		rc.ratePps, m = rc.rampDecade(n)
		n -= m
	}
	// At capacity, where a flow held below the link by a host-side cap
	// spends nearly every SYN: the step is the floor.
	rc.ratePps = sim.AddRepeated(rc.ratePps, rc.minIncPps, n)
}

// decadeMargin is how far inside a decade, relatively, a residual must
// sit for the decade's window to hold it: log10(1+δ) ≈ 4.3e-10,
// far above math.Log10's error (≲ 1e-14).
const decadeMargin = 1e-9

// floorDecade is the last decade whose increment is the 1/MSS floor:
// 10^5·Beta < 1 ≤ 10^6·Beta, and the MSS divides both sides.
const floorDecade = 5

// rampDecade takes the next m ≥ 1 of n loss-free SYNs below capacity,
// where each adds the same step, and returns the rate after them. The
// step depends on the rate only through its decade of residual bits (see
// step). The residual only falls as the rate grows, so when the residual
// before the first and after the m-th add both lie in the decade's
// window, so does every residual in between. A residual within δ of a
// decade boundary, and a run shorter than sim.ShortRun (OnInterval's
// every SYN), takes a single step.
func (rc *RateControl) rampDecade(n int) (rate float64, m int) {
	pktBits := float64(rc.mss * 8)
	bits := (rc.capacityPps - rc.ratePps) * pktBits
	step := rc.step(bits)
	if n >= sim.ShortRun && bits >= rc.lo && bits <= rc.hi {
		// Estimate the adds the decade has room for, then verify it.
		m = n
		if room := (bits - rc.lo) / (step * pktBits); room < float64(n) {
			m = int(room)
		}
		for ; m > 1; m /= 2 {
			rate = sim.AddRepeated(rc.ratePps, step, m)
			if r := (rc.capacityPps - rate) * pktBits; r >= rc.lo && r > 0 {
				return rate, m
			}
		}
	}
	return rc.ratePps + step, 1
}

// step returns the rate increase of one loss-free SYN below capacity,
// bits > 0 residual bits/s from it: the stored step when bits lies in
// the last decade's window.
func (rc *RateControl) step(bits float64) float64 {
	if bits >= rc.lo && bits <= rc.hi {
		return rc.stepPps
	}
	return rc.enterDecade(bits)
}

// enterDecade computes UDT's step, inc/SYN in the package doc's law, for
// d = ⌈log10(bits)⌉ and stores it with d's window, [10^(d-1)·(1+δ), 10^d·(1-δ)]: for any
// residual there the true log10 lies at least log10(1+δ) inside (d-1, d),
// so math.Log10's ceiling is d again, with no monotonicity of Log10
// needed, only an error far below δ. At the floor the window is (0,
// 10^5·(1-δ)], where every d gives the 1/MSS floor. A residual within δ
// of a decade boundary lies in no window, and pays Log10 each SYN.
func (rc *RateControl) enterDecade(bits float64) float64 {
	d := math.Ceil(math.Log10(bits))
	inc := math.Pow(10, d) * Beta / float64(rc.mss)
	if inc < rc.minInc {
		inc = rc.minInc
	}
	rc.lo, rc.hi, rc.stepPps = math.Pow(10, d-1)*(1+decadeMargin), math.Pow(10, d)*(1-decadeMargin), inc/SYN
	if d <= floorDecade {
		rc.lo, rc.hi = 0, math.Pow(10, floorDecade)*(1-decadeMargin)
	}
	return rc.stepPps
}
