// Package tcpmodel implements the TCP Reno behaviour that limits rsync/ssh
// on the OSDC's high bandwidth-delay-product WAN paths (paper §7.2,
// Table 3's baseline).
//
// Like internal/udt it provides a macro congestion-control law
// (transport.Controller) for the transport.Simulate driver.
//
// The key phenomenon Table 3 turns on: on a 104 ms RTT path, Reno's
// one-packet-per-RTT additive increase and halve-on-loss multiplicative
// decrease keep the average window near sqrt(1.5/p) packets, far below the
// 10G path's bandwidth-delay product — while UDT's rate-based DAIMD
// recovers to near the bottleneck in seconds. When rsync is tunneled over
// ssh, the ssh channel's fixed flow-control window caps the window
// regardless of the congestion state (modelled by WindowCapBytes).
package tcpmodel

import (
	"osdc/internal/sim"
	"osdc/internal/transport"
)

// Reno is TCP Reno's AIMD law at one-RTT granularity. It implements
// transport.Controller.
type Reno struct {
	rtt      sim.Duration
	cwnd     float64 // packets
	ssthresh float64 // packets
	capPkts  float64 // flow-control (receive/ssh-channel) cap; 0 = none
}

var _ transport.Controller = (*Reno)(nil)

// InitialWindow is the RFC 6928 initial congestion window in packets.
const InitialWindow = 10

// NewReno builds the controller for a path. windowCapBytes models the
// smaller of the receive window and any tunnel window (ssh); 0 disables the
// cap.
func NewReno(path transport.Path, windowCapBytes int) *Reno {
	mss := path.MSS
	if mss <= 0 {
		mss = transport.DefaultMSS
	}
	r := &Reno{
		rtt:      path.RTT,
		cwnd:     InitialWindow,
		ssthresh: 1e12, // slow start until the first loss
	}
	if windowCapBytes > 0 {
		r.capPkts = float64(windowCapBytes) / float64(mss)
		if r.capPkts < 2 {
			r.capPkts = 2
		}
	}
	return r
}

// Name implements transport.Controller.
func (r *Reno) Name() string { return "tcp-reno" }

// Interval implements transport.Controller: one RTT.
func (r *Reno) Interval() sim.Duration { return r.rtt }

// RatePps implements transport.Controller.
func (r *Reno) RatePps() float64 { return r.window() / r.rtt }

func (r *Reno) window() float64 {
	w := r.cwnd
	if r.capPkts > 0 && w > r.capPkts {
		w = r.capPkts
	}
	return w
}

// OnInterval advances one RTT of Reno dynamics.
func (r *Reno) OnInterval(lossEvent bool) {
	if lossEvent {
		// Fast recovery: halve.
		r.ssthresh = r.cwnd / 2
		if r.ssthresh < 2 {
			r.ssthresh = 2
		}
		r.cwnd = r.ssthresh
		return
	}
	if r.cwnd < r.ssthresh {
		r.cwnd *= 2 // slow start doubles per RTT
		if r.cwnd > r.ssthresh {
			r.cwnd = r.ssthresh
		}
	} else {
		r.cwnd++ // congestion avoidance: one packet per RTT
	}
	if r.capPkts > 0 && r.cwnd > r.capPkts {
		r.cwnd = r.capPkts
	}
}

// Steady reports whether loss-free intervals leave RatePps bit-identical:
// the window sits at its flow-control cap, so any growth is clamped away.
func (r *Reno) Steady() bool { return r.capPkts > 0 && r.cwnd >= r.capPkts }

// OnQuietIntervals advances n loss-free RTTs, bit for bit n calls of
// OnInterval(false). Slow start takes its doublings one at a time (at most
// ~40 before ssthresh or the cap). Congestion avoidance is n adds of one
// packet in one sim.AddRepeated, then the clamp: the partial sums never
// decrease, so the last exceeds the cap exactly when some add did, and
// from that add on every interval leaves the cap. At the cap the clamp
// makes it a fixed point.
func (r *Reno) OnQuietIntervals(n int) {
	for ; n > 0 && r.cwnd < r.ssthresh && !r.Steady(); n-- {
		r.OnInterval(false)
	}
	if n > 0 {
		r.cwnd = sim.AddRepeated(r.cwnd, 1, n)
		if r.capPkts > 0 && r.cwnd > r.capPkts {
			r.cwnd = r.capPkts
		}
	}
}
