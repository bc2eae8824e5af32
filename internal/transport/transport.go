// Package transport provides the shared machinery for simulating bulk data
// transfers over the OSDC WAN (paper §7.2, Table 3).
//
// Two granularities are supported:
//
//   - Packet level: internal/udt and internal/tcpmodel implement full
//     protocol state machines (sequence numbers, ACK/NAK, retransmission)
//     over simnet packets. Used to validate protocol correctness.
//   - Macro level: the same congestion-control laws advanced one control
//     interval at a time against an analytic path model. Used for the
//     terabyte-scale transfers of Table 3, where packet-level simulation
//     would need ~10⁹ events.
//
// The Controller interface is the bridge: both UDT's DAIMD rate control and
// TCP Reno's AIMD window control implement it, so the macro driver and the
// benchmarks treat them uniformly.
package transport

import (
	"fmt"
	"math"

	"osdc/internal/sim"
	"osdc/internal/simnet"
)

// DefaultMSS is the Ethernet-path maximum segment size in bytes.
const DefaultMSS = 1460

// Path is the analytic view of a network path: what a transfer sees.
type Path struct {
	BandwidthBps float64      // bottleneck link bandwidth, bits/s
	RTT          sim.Duration // round-trip propagation delay, seconds
	Loss         float64      // per-packet random loss probability
	MSS          int          // segment size, bytes
}

// PathBetween derives the analytic path between two nodes of a simnet
// topology.
func PathBetween(nw *simnet.Network, a, b string) Path {
	return Path{
		BandwidthBps: math.Min(nw.PathBandwidth(a, b), nw.PathBandwidth(b, a)),
		RTT:          nw.PathRTT(a, b),
		Loss:         nw.PathLoss(a, b),
		MSS:          DefaultMSS,
	}
}

// PacketsPerSec converts the path bandwidth to packets per second.
func (p Path) PacketsPerSec() float64 { return p.BandwidthBps / float64(p.MSS*8) }

// BDP returns the bandwidth-delay product in bytes.
func (p Path) BDP() float64 { return p.BandwidthBps / 8 * p.RTT }

// Controller is a congestion-control law advanced in fixed control
// intervals. Implementations must be deterministic given the same feedback
// sequence.
type Controller interface {
	// Name identifies the law, e.g. "udt-daimd" or "tcp-reno".
	Name() string
	// Interval is the control-loop period: UDT's SYN (10 ms) or one RTT for
	// TCP. It is positive and constant for the controller's lifetime.
	Interval() sim.Duration
	// RatePps is the currently allowed sending rate in packets/second.
	RatePps() float64
	// OnInterval advances the law by one interval. lossEvent reports whether
	// at least one loss was detected during the interval.
	OnInterval(lossEvent bool)
}

// Caps model the non-network stages of a transfer pipeline. A zero value
// means "not limiting". The pipeline is assumed fully overlapped (UDR and
// rsync both pipeline read→encrypt→send→decrypt→write), so the steady-state
// goodput is the minimum of all stage rates.
type Caps struct {
	SenderBps    float64 // sender CPU / cipher throughput, bits/s
	ReceiverBps  float64 // receiver CPU / cipher throughput, bits/s
	DiskReadBps  float64 // source disk streaming read, bits/s
	DiskWriteBps float64 // target disk streaming write, bits/s
}

// Min returns the binding cap in bits/s, or +Inf if none is set.
func (c Caps) Min() float64 {
	m := math.Inf(1)
	for _, v := range []float64{c.SenderBps, c.ReceiverBps, c.DiskReadBps, c.DiskWriteBps} {
		if v > 0 && v < m {
			m = v
		}
	}
	return m
}

// Result summarizes a simulated transfer.
type Result struct {
	Protocol   string
	Bytes      int64
	Duration   sim.Duration
	LossEvents int64   // control intervals that saw loss
	Retransmit int64   // packets retransmitted
	PeakBps    float64 // highest interval goodput observed
}

// ThroughputBps is the average goodput in bits per second.
func (r Result) ThroughputBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Duration
}

// ThroughputMbit is the average goodput in Mbit/s, the unit Table 3 uses.
func (r Result) ThroughputMbit() float64 { return r.ThroughputBps() / 1e6 }

// LLR is the paper's "long distance to local ratio": achieved throughput
// divided by the slower of the two local disk speeds (§7.2).
func (r Result) LLR(caps Caps) float64 {
	denom := math.Min(caps.DiskReadBps, caps.DiskWriteBps)
	if denom <= 0 {
		return 0
	}
	return r.ThroughputBps() / denom
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %.0f mbit/s over %s (%d loss events)",
		r.Protocol, r.ThroughputMbit(), sim.Time(r.Duration), r.LossEvents)
}

// Simulate runs the macro transfer model: advance the controller one
// interval at a time, send at min(controller rate, caps, path bandwidth),
// sample random loss, detect queue-overload loss, and accumulate goodput
// until totalBytes are delivered.
//
// Loss model per interval: the number of randomly lost packets is sampled
// Poisson(n·p); additionally, if the controller's raw rate exceeds the path
// bandwidth, the excess fraction is dropped at the bottleneck queue
// (congestion loss). Lost packets are retransmitted (they consume sending
// budget but do not count toward goodput).
func Simulate(rng *sim.RNG, path Path, ctrl Controller, totalBytes int64, caps Caps) Result {
	if totalBytes <= 0 {
		panic("transport: totalBytes must be positive")
	}
	if path.MSS <= 0 {
		path.MSS = DefaultMSS
	}
	dt := ctrl.Interval()
	if dt <= 0 {
		// sent and t would both stay 0 and the loop below never ends.
		panic("transport: controller has non-positive interval")
	}
	res := Result{Protocol: ctrl.Name(), Bytes: totalBytes}
	capBps := caps.Min()
	pktBits := float64(path.MSS * 8)
	bottleneckPps := path.BandwidthBps / pktBits
	capPps := capBps / pktBits
	mss := float64(path.MSS)
	total := float64(totalBytes)

	var loss lossSampler
	var delivered float64
	var t sim.Duration
	// Fractional lost packets accumulate across intervals and are rounded
	// once at the end; truncating per interval undercounts slow flows
	// whose per-interval loss is < 1 packet.
	var retrans float64
	// The largest interval delivery; bytes → bits/s is monotone, so it is
	// converted once, after the loop.
	var peak float64
	for delivered < total {
		// Application-side caps throttle the send loop; that is not loss,
		// the sender simply paces slower.
		effPps := ctrl.RatePps()
		if capBps < effPps*pktBits {
			effPps = capPps
		}
		// Pushing above the bottleneck overflows its queue: the excess is
		// congestion loss the controller must react to.
		congDrops := 0.0
		if effPps > bottleneckPps {
			congDrops = (effPps - bottleneckPps) * dt
			effPps = bottleneckPps
		}
		sent := effPps * dt // packets that actually traverse the bottleneck
		lost := loss.draw(rng, sent*path.Loss)
		if lost > sent {
			lost = sent
		}
		lossEvent := lost > 0 || congDrops >= 1
		// Every packet that arrives delivers a unique useful chunk: dropped
		// chunks are simply re-sent from future sending budget, so counting
		// arrivals as goodput and drops as retransmissions is exact in the
		// steady state (duplicates are rare enough to ignore).
		arrived := sent - lost
		retrans += lost + congDrops
		deliveredNow := arrived * mss
		delivered += deliveredNow
		if deliveredNow > peak {
			peak = deliveredNow
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
	res.PeakBps = peak * 8 / dt
	// Remove the overshoot of the final interval for a fair duration.
	over := delivered - total
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

// lossSampler draws one flow's random tail loss per tick: Poisson(mean)
// lost packets, the Poisson approximation of a binomial. Knuth's method
// needs exp(-mean), and a flow pinned at its sender, cipher or window cap
// offers the same mean tick after tick, so the sampler keeps the last
// small mean with its exponential and recomputes only when the mean
// differs. The memo is keyed on exact float equality: a hit returns the
// very bits math.Exp would, so results and RNG draws are unchanged.
type lossSampler struct {
	mean, expNeg float64 // last mean in (0, 50] and exp(-mean)
}

// draw samples Poisson(mean). For large means it uses a normal
// approximation, which is fine at the scales we simulate.
func (s *lossSampler) draw(rng *sim.RNG, mean float64) float64 {
	if mean <= 0 {
		// Before the memo: the zero value holds mean 0 with expNeg 0, not
		// exp(-0) = 1, and must never be taken for a hit.
		return 0
	}
	if mean > 50 {
		v := math.Round(rng.Normal(mean, math.Sqrt(mean)))
		if v < 0 {
			v = 0
		}
		return v
	}
	if mean != s.mean {
		s.mean, s.expNeg = mean, math.Exp(-mean)
	}
	// Knuth's method.
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= s.expNeg {
			break
		}
		k++
	}
	return float64(k)
}
