// Package workload generates the synthetic traffic that stands
// in for the OSDC's production workloads (see DESIGN.md "Substitutions").
//
// Table 1 of the paper contrasts commercial and science cloud service
// providers: commercial CSPs see "lots of small web flows" while science
// CSPs "also [see] large incoming and outgoing data flows". FlowGen
// produces both traffic classes with the appropriate size distributions so
// the benchmark can measure the contrast.
package workload

import (
	"fmt"
	"math"
	"sort"

	"osdc/internal/sim"
)

// FlowClass selects a traffic mix.
type FlowClass string

// The two Table 1 traffic classes.
const (
	ClassWeb     FlowClass = "web"     // commercial: many small request/response flows
	ClassScience FlowClass = "science" // research: elephant dataset transfers
)

// FlowSpec is one generated transfer demand.
type FlowSpec struct {
	Class    FlowClass
	Bytes    int64
	Incoming bool // toward the provider (upload) vs outgoing
}

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
	// No flow carries its arrival time, but each is still drawn, so every
	// later draw from the stream stays where it was.
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

// Generate produces flows of one class.
func Generate(rng *sim.RNG, class FlowClass, p GenParams) []FlowSpec {
	out := make([]FlowSpec, 0, p.Flows)
	for i := 0; i < p.Flows; i++ {
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
		out = append(out, FlowSpec{
			Class: class, Bytes: bytes,
			Incoming: rng.Bernoulli(inFrac),
		})
	}
	return out
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

// Characterize computes the statistics for a flow set.
func Characterize(flows []FlowSpec) Stats {
	if len(flows) == 0 {
		return Stats{}
	}
	s := Stats{Class: flows[0].Class, Count: len(flows)}
	sizes := make([]int64, len(flows))
	var elephantBytes, inBytes int64
	for i, f := range flows {
		sizes[i] = f.Bytes
		s.TotalBytes += f.Bytes
		if f.Bytes >= 1<<30 {
			elephantBytes += f.Bytes
		}
		if f.Incoming {
			inBytes += f.Bytes
		}
		if f.Bytes > s.MaxBytes {
			s.MaxBytes = f.Bytes
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	s.MedianBytes = sizes[len(sizes)/2]
	s.P99Bytes = sizes[len(sizes)*99/100]
	s.ElephantShare = float64(elephantBytes) / float64(s.TotalBytes)
	s.IncomingShare = float64(inBytes) / float64(s.TotalBytes)
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: n=%d median=%s p99=%s elephant=%.0f%% incoming=%.0f%%",
		s.Class, s.Count, human(s.MedianBytes), human(s.P99Bytes),
		100*s.ElephantShare, 100*s.IncomingShare)
}

func human(b int64) string {
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
