// Package workload generates the synthetic traffic that stands
// in for the OSDC's production workloads (see DESIGN.md "Substitutions").
//
// Table 1 of the paper contrasts commercial and science cloud service
// providers: commercial CSPs see "lots of small web flows" while science
// CSPs "also [see] large incoming and outgoing data flows". Sample draws
// either traffic class from its size distribution straight into its
// statistics, so the benchmark can measure the contrast.
package workload

import (
	"fmt"
	"math"

	"osdc/internal/sim"
)

// FlowClass selects a traffic mix.
type FlowClass string

// The two Table 1 traffic classes.
const (
	ClassWeb     FlowClass = "web"     // commercial: many small request/response flows
	ClassScience FlowClass = "science" // research: elephant dataset transfers
)

// GenParams tunes the generator.
type GenParams struct {
	Flows int
	// Web flows: lognormal, median ~20 KB, occasionally MBs.
	WebMu, WebSigma float64
	// Science flows: Pareto with multi-GB scale and a heavy tail into TBs.
	ParetoScale float64 // bytes
	ParetoAlpha float64
	// Science traffic is symmetric (datasets both arrive and leave);
	// commercial web traffic is mostly responses (outgoing).
	ScienceIncomingFrac float64
	WebIncomingFrac     float64
	// Arrival process: exponential inter-arrivals with this mean (seconds).
	// No statistic uses the arrival time, but each is still drawn, so
	// every later draw from the stream stays where it was.
	MeanInterarrival float64
}

// DefaultParams returns calibrated generator settings.
func DefaultParams() GenParams {
	return GenParams{
		Flows: 10000,
		WebMu: math.Log(20 << 10), WebSigma: 1.2,
		ParetoScale: 2 << 30, ParetoAlpha: 1.05,
		ScienceIncomingFrac: 0.5, WebIncomingFrac: 0.1,
		MeanInterarrival: 0.5,
	}
}

// Stats characterizes a flow population — the measured form of Table 1.
type Stats struct {
	Class         FlowClass
	Count         int
	TotalBytes    int64
	MedianBytes   int64
	P99Bytes      int64
	MaxBytes      int64
	ElephantShare float64 // fraction of BYTES carried by flows ≥ 1 GB
	IncomingShare float64 // fraction of BYTES flowing inward
}

// Sample draws p.Flows flows of one class and folds each into the
// statistics as it is drawn. Per flow it draws the arrival, the size and
// the direction, in that order. Only the sizes are kept, for the median
// and p99; that buffer is its one allocation. With no flows it draws
// nothing and returns the zero Stats.
func Sample(rng *sim.RNG, class FlowClass, p GenParams) Stats {
	if p.Flows == 0 {
		return Stats{}
	}
	s := Stats{Class: class, Count: p.Flows}
	sizes := make([]int64, p.Flows)
	var elephantBytes, inBytes int64
	for i := range sizes {
		rng.Exp(p.MeanInterarrival) // the arrival draw
		var bytes int64
		var inFrac float64
		switch class {
		case ClassWeb:
			bytes = int64(rng.LogNormal(p.WebMu, p.WebSigma))
			inFrac = p.WebIncomingFrac
		case ClassScience:
			bytes = int64(rng.Pareto(p.ParetoScale, p.ParetoAlpha))
			// Cap at 10 TB: a single transfer larger than that is split by
			// the tooling anyway.
			if bytes > 10<<40 {
				bytes = 10 << 40
			}
			inFrac = p.ScienceIncomingFrac
		default:
			panic("workload: unknown class " + string(class))
		}
		if bytes < 1 {
			bytes = 1
		}
		sizes[i] = bytes
		s.TotalBytes += bytes
		if bytes >= 1<<30 {
			elephantBytes += bytes
		}
		if rng.Bernoulli(inFrac) {
			inBytes += bytes
		}
		if bytes > s.MaxBytes {
			s.MaxBytes = bytes
		}
	}
	// p99 first, over the whole buffer; it leaves the smaller sizes in
	// front of it, so the median is selected over that prefix only.
	p99 := len(sizes) * 99 / 100
	s.P99Bytes = selectRank(sizes, p99)
	s.MedianBytes = selectRank(sizes[:p99+1], len(sizes)/2)
	s.ElephantShare = float64(elephantBytes) / float64(s.TotalBytes)
	s.IncomingShare = float64(inBytes) / float64(s.TotalBytes)
	return s
}

// selectRank returns the value a sorted copy of a holds at rank k. It
// reorders a in place so that a[k] holds that value, with nothing larger
// before it and nothing smaller after it. It is Hoare's FIND (CACM 4(7),
// 1961) with a median-of-three pivot: expected linear time, where a full
// sort would be n log n.
func selectRank(a []int64, k int) int64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Order a[lo], a[mid], a[hi]; the median is the pivot, and the two
		// ends bound both scans below.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] ≤ pivot ≤ a[i..hi], and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: n=%d median=%s p99=%s elephant=%.0f%% incoming=%.0f%%",
		s.Class, s.Count, HumanBytes(s.MedianBytes), HumanBytes(s.P99Bytes),
		100*s.ElephantShare, 100*s.IncomingShare)
}

// HumanBytes formats a byte count in binary units with one decimal, as
// Table 1 prints flow sizes.
func HumanBytes(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
