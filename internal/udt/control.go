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

// OnQuietIntervals advances n loss-free SYNs, bit for bit n calls of
// OnInterval(false). The rate only grows without loss, so once it reaches
// capacity it stays there.
func (rc *RateControl) OnQuietIntervals(n int) {
	for ; n > 0 && rc.capacityPps-rc.ratePps > 0; n-- {
		rc.ratePps += rc.increment() / SYN
	}
	// At capacity, where a flow held below the link by a host-side cap
	// spends nearly every SYN: increment() is the floor.
	rc.ratePps = addRepeated(rc.ratePps, rc.minIncPps, n)
}

// shortRun is the run length below which addRepeated is a plain loop: a
// single SYN (OnInterval, SimulateShared's every tick) costs one add.
const shortRun = 16

// addRepeated returns x after n sequential x += c, bit for bit. Write a
// positive normal x as a·u, with a an integer in [2^52, 2^53) and u the
// spacing of x's binade. q = c/u is exact (u is a power of two), and while
// the exact sum stays below 2^53·u every add rounds to x + k·u, k = round(q),
// unless q is a tie, whose rounding follows a's parity. So the adds that
// stay in the binade are one exact add of m·k·u; the add that leaves it is
// an ordinary one, as is any add a tie, q ≥ 2^52 or an x that is not a
// positive normal makes.
func addRepeated(x, c float64, n int) float64 {
	if n < shortRun || !(c > 0) {
		for ; n > 0; n-- {
			x += c
		}
		return x
	}
	for n > 0 {
		bits := math.Float64bits(x)
		exp := int(bits >> 52) // the sign bit makes a negative x ≥ 0x800
		u := math.Ldexp(1, exp-1075)
		q := c / u
		k := math.Round(q)
		if f := q - k; exp > 0 && exp < 0x7ff && q < 1<<52 && f != 0.5 && f != -0.5 {
			if k == 0 {
				return x // q < 1/2: x + c rounds back to x
			}
			// The exact sum a + k + f must stay below 2^53.
			room := int64(1<<53) - int64(bits&(1<<52-1)|1<<52)
			if f >= 0 {
				room--
			}
			m := min(int64(n), room/int64(k))
			x += float64(m*int64(k)) * u
			if n -= int(m); n == 0 {
				return x
			}
		}
		x += c
		n--
	}
	return x
}

// increment returns UDT's per-SYN additive increase in packets.
func (rc *RateControl) increment() float64 {
	residualPps := rc.capacityPps - rc.ratePps
	if residualPps <= 0 {
		return rc.minInc
	}
	residualBits := residualPps * float64(rc.mss*8)
	inc := math.Pow(10, math.Ceil(math.Log10(residualBits))) * Beta / float64(rc.mss)
	if inc < rc.minInc {
		return rc.minInc
	}
	return inc
}
