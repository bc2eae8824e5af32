// Package transport provides the shared machinery for simulating bulk data
// transfers over the OSDC WAN (paper §7.2, Table 3).
//
// Transfers are simulated at the macro level: a congestion-control law is
// advanced one control interval at a time against an analytic path model,
// which is what makes the terabyte-scale transfers of Table 3 tractable
// (a packet-level simulation would need ~10⁹ events).
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

// quietController is a Controller whose loss-free intervals the tick loop
// may apply in one call. OnQuietIntervals(n) must be exactly n calls of
// OnInterval(false), bit for bit, and RatePps must never decrease across a
// loss-free interval, so a flow its caps hold stays held for a whole run.
// Steady reports that loss-free intervals leave RatePps bit-identical, so
// the flow is held at its own rate.
type quietController interface {
	Controller
	OnQuietIntervals(n int)
	Steady() bool
}

// Caps model the non-network stages of a transfer pipeline. A zero value
// means "not limiting". The pipeline is assumed fully overlapped (UDR and
// rsync both pipeline read→encrypt→send→decrypt→write), so the steady-state
// goodput is the minimum of all stage rates.
type Caps struct {
	SenderBps    float64 // sender CPU / cipher throughput, bits/s
	DiskReadBps  float64 // source disk streaming read, bits/s
	DiskWriteBps float64 // target disk streaming write, bits/s
}

// Min returns the binding cap in bits/s, or +Inf if none is set.
func (c Caps) Min() float64 {
	m := math.Inf(1)
	for _, v := range []float64{c.SenderBps, c.DiskReadBps, c.DiskWriteBps} {
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
	LossEvents int64 // control intervals that saw loss
	Retransmit int64 // packets retransmitted
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
//
// It is SimulateShared's loop over a one-flow set, held on the stack.
func Simulate(rng *sim.RNG, path Path, ctrl Controller, totalBytes int64, caps Caps) Result {
	flows := [1]flow{newFlow(ctrl, totalBytes)}
	simulate(rng, path, flows[:], caps)
	return flows[0].res
}

// heldTick is a tick of a held flow: it delivers bytes in dt, and it is
// loss-free unless a draw exceeds exp(-mean). A flow keeps its last held
// rate's tick, keyed on exact float equality, so a hit is the very tick
// the rate gives.
type heldTick struct {
	rate  float64 // packets/s, the key; NaN before the first
	quiet bool    // at or under the bottleneck and mean ≤ 50: no queue drops, Knuth's sampler
	bytes float64
	dt    sim.Duration
	limit uint64 // ⌊exp(-mean)·2^53⌋, the same test in sim.RNG.DrawsBelow's terms
	draws bool   // mean > 0: a lossless path draws nothing
}

// hold makes h the tick at pps, with the general tick's arithmetic: sent =
// pps·dt packets, mean = sent·loss, and, none lost, sent·MSS bytes.
func (h *heldTick) hold(pps float64, dt sim.Duration, path Path, bottleneckPps float64) {
	sent := pps * dt
	mean := sent * path.Loss
	*h = heldTick{
		rate:  pps,
		quiet: pps <= bottleneckPps && mean <= 50,
		bytes: sent * float64(path.MSS), // arrived = sent - 0 is sent, bit for bit
		dt:    dt,
		limit: uint64(math.Exp(-mean) * (1 << 53)),
		draws: mean > 0,
	}
}

// maxQuietChunk bounds one RNG scan: long enough that a chunk's fixed cost
// vanishes per tick.
const maxQuietChunk = 1 << 20

// quietRun takes held ticks from delivered and t until one would lose a
// packet or the transfer ends or runs out of time, exactly as a tick at a
// time would. It returns how many ticks it took, delivered and t after
// them, and the draw that stopped it on a loss, or 0.
//
// Ticks go in chunks: one register-resident scan for the draws and one
// exact sim.AddRepeated each for delivered and t. A chunk's size is
// estimated, with a margin, from the ticks left before delivered reaches
// total or t passes 100 days, and verified afterwards: the partial sums
// only grow, so when the k-th of a chunk's k ticks leaves delivered below
// total and t within 100 days, none of them ended the transfer, and each
// draw of the scan, the stopping one included, is one the per-tick loop
// makes too. A chunk that fails the check is taken back (the RNG state
// restored) and retried at half the size. Within sim.ShortRun ticks of
// the end, ticks go one at a time.
func (h heldTick) quietRun(rng *sim.RNG, delivered, total float64, t sim.Duration) (n int, _ float64, _ sim.Duration, first float64) {
	for m := maxQuietChunk; ; {
		room := math.Min((total-delivered)/h.bytes, (100*sim.Day-t)/h.dt)
		if m = int(math.Min(float64(m), room*(1-1e-9)-2)); m < sim.ShortRun {
			break
		}
		saved := *rng
		k := m
		if h.draws {
			k, first = rng.DrawsBelow(h.limit, m)
		}
		next, nextT := sim.AddRepeated(delivered, h.bytes, k), sim.AddRepeated(t, h.dt, k)
		if next >= total || nextT > 100*sim.Day {
			*rng, first = saved, 0
			m /= 2
			continue
		}
		delivered, t, n = next, nextT, n+k
		if k < m {
			return n, delivered, t, first
		}
		m = maxQuietChunk
	}
	for {
		if h.draws {
			if k, u := rng.DrawsBelow(h.limit, 1); k == 0 {
				return n, delivered, t, u
			}
		}
		delivered += h.bytes
		t += h.dt
		n++
		if delivered >= total || t > 100*sim.Day {
			return n, delivered, t, 0
		}
	}
}

const notConverged = "transport: transfer did not converge (rate stuck near zero?)"

// lossSampler draws one flow's random tail loss per tick: Poisson(mean)
// lost packets, the Poisson approximation of a binomial. Knuth's method
// needs exp(-mean), and a flow pinned at its sender, cipher or window cap
// offers the same mean tick after tick, so the sampler keeps the last
// small mean with its exponential and recomputes only when the mean
// differs. The memo is keyed on exact float equality: a hit returns the
// very bits math.Exp would, so results and RNG draws are unchanged.
//
// A quiet run that stops on a draw above exp(-mean) leaves that uniform in
// first, and the next draw continues Knuth's loop from it.
type lossSampler struct {
	mean, expNeg float64 // last mean in (0, 50] and exp(-mean)
	first        float64 // a uniform already drawn for this tick, or 0
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
	// Knuth's method: multiply uniforms until the product falls to
	// exp(-mean). The first of a tick decides k = 0 without the exponential
	// when u < 1-mean-2^-50: exp(-mean) ≥ 1-mean, and math.Exp and the two
	// subtractions each err by under 2^-53 here, so u < exp(-mean) as
	// computed.
	var k int
	p := s.first
	if p > 0 {
		k, s.first = 1, 0
		p *= rng.Float64()
	} else if p = rng.Float64(); p < 1-mean-0x1p-50 {
		return 0
	}
	if mean != s.mean {
		s.mean, s.expNeg = mean, math.Exp(-mean)
	}
	for p > s.expNeg {
		k++
		p *= rng.Float64()
	}
	return float64(k)
}
