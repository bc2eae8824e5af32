// Package udt implements the UDT protocol used by the OSDC's UDR transfer
// tool (paper §7.2).
//
// UDT (UDP-based Data Transfer) is a reliable, rate-based protocol designed
// for high bandwidth-delay-product research networks, where TCP's AIMD
// window control leaves most of a 10G path idle. This package provides:
//
//   - RateControl: UDT's DAIMD congestion control law (decreasing AIMD),
//     usable with the transport.Simulate macro driver for terabyte-scale
//     transfers;
//   - Sender/Receiver: a packet-level implementation with sequence numbers,
//     selective NAK-based loss reporting, periodic ACKs and pacing, running
//     over simnet for protocol-correctness tests.
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
	decreases   int64
	increases   int64
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

// Decreases returns the number of loss-triggered rate decreases.
func (rc *RateControl) Decreases() int64 { return rc.decreases }

// OnInterval advances one SYN.
func (rc *RateControl) OnInterval(lossEvent bool) {
	if lossEvent {
		rc.ratePps *= DecreaseFactor
		if rc.ratePps < 1/SYN {
			rc.ratePps = 1 / SYN
		}
		rc.decreases++
		return
	}
	if rc.capacityPps-rc.ratePps <= 0 {
		// At capacity, where a flow held below the link by a host-side cap
		// spends nearly every SYN: increment() is the floor.
		rc.ratePps += rc.minIncPps
	} else {
		rc.ratePps += rc.increment() / SYN
	}
	rc.increases++
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
