package workload

import (
	"math"
	"slices"
	"sort"
	"testing"

	"osdc/internal/sim"
)

func TestWebFlowsAreSmall(t *testing.T) {
	rng := sim.NewRNG(1)
	s := Sample(rng, ClassWeb, DefaultParams())
	if s.Count != 10000 {
		t.Fatalf("count = %d", s.Count)
	}
	// Median web flow ~20 KB; certainly under 1 MB.
	if s.MedianBytes > 1<<20 {
		t.Fatalf("web median = %d bytes, want ~20 KB", s.MedianBytes)
	}
	if s.ElephantShare > 0.2 {
		t.Fatalf("web elephant share = %.2f, want small", s.ElephantShare)
	}
}

func TestScienceFlowsAreElephants(t *testing.T) {
	rng := sim.NewRNG(2)
	s := Sample(rng, ClassScience, DefaultParams())
	// Median science flow is GBs; most bytes in ≥1 GB flows.
	if s.MedianBytes < 1<<30 {
		t.Fatalf("science median = %d bytes, want ≥1 GB", s.MedianBytes)
	}
	if s.ElephantShare < 0.95 {
		t.Fatalf("science elephant share = %.2f, want ≈1", s.ElephantShare)
	}
}

func TestTable1Contrast(t *testing.T) {
	rng := sim.NewRNG(3)
	web := Sample(rng, ClassWeb, DefaultParams())
	sci := Sample(rng, ClassScience, DefaultParams())
	// Table 1: science traffic has large incoming AND outgoing flows;
	// commercial traffic is response-dominated (mostly outgoing bytes).
	if web.IncomingShare > 0.3 {
		t.Fatalf("web incoming share = %.2f, want small", web.IncomingShare)
	}
	if sci.IncomingShare < 0.3 || sci.IncomingShare > 0.7 {
		t.Fatalf("science incoming share = %.2f, want ~0.5 (symmetric)", sci.IncomingShare)
	}
	// Size contrast: orders of magnitude.
	if float64(sci.MedianBytes) < 1000*float64(web.MedianBytes) {
		t.Fatalf("science median (%d) not ≫ web median (%d)", sci.MedianBytes, web.MedianBytes)
	}
}

func TestCharacterizeEmpty(t *testing.T) {
	p := DefaultParams()
	p.Flows = 0
	rng, untouched := sim.NewRNG(4), sim.NewRNG(4)
	for _, class := range []FlowClass{ClassWeb, ClassScience} {
		if s := Sample(rng, class, p); s != (Stats{}) {
			t.Fatalf("%s: empty stats = %+v, want zero", class, s)
		}
	}
	if got, want := rng.Uint64(), untouched.Uint64(); got != want {
		t.Fatal("an empty sample drew from the stream")
	}
}

func TestHumanFormatter(t *testing.T) {
	cases := map[int64]string{
		500:     "500B",
		2 << 10: "2.0KB",
		3 << 20: "3.0MB",
		5 << 30: "5.0GB",
		2 << 40: "2.0TB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Fatalf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// flowSpec is one materialized flow of the reference path.
type flowSpec struct {
	bytes    int64
	incoming bool
}

// materializedSample is the reference Sample is held to: it stores every
// flow, then characterizes the set with a full sort, as the package did
// before it sampled straight into the statistics.
func materializedSample(rng *sim.RNG, class FlowClass, p GenParams) Stats {
	flows := make([]flowSpec, 0, p.Flows)
	for i := 0; i < p.Flows; i++ {
		rng.Exp(p.MeanInterarrival)
		var bytes int64
		var inFrac float64
		switch class {
		case ClassWeb:
			bytes = int64(rng.LogNormal(p.WebMu, p.WebSigma))
			inFrac = p.WebIncomingFrac
		case ClassScience:
			bytes = int64(rng.Pareto(p.ParetoScale, p.ParetoAlpha))
			if bytes > 10<<40 {
				bytes = 10 << 40
			}
			inFrac = p.ScienceIncomingFrac
		}
		if bytes < 1 {
			bytes = 1
		}
		flows = append(flows, flowSpec{bytes: bytes, incoming: rng.Bernoulli(inFrac)})
	}
	if len(flows) == 0 {
		return Stats{}
	}
	s := Stats{Class: class, Count: len(flows)}
	sizes := make([]int64, len(flows))
	var elephantBytes, inBytes int64
	for i, f := range flows {
		sizes[i] = f.bytes
		s.TotalBytes += f.bytes
		if f.bytes >= 1<<30 {
			elephantBytes += f.bytes
		}
		if f.incoming {
			inBytes += f.bytes
		}
		if f.bytes > s.MaxBytes {
			s.MaxBytes = f.bytes
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	s.MedianBytes = sizes[len(sizes)/2]
	s.P99Bytes = sizes[len(sizes)*99/100]
	s.ElephantShare = float64(elephantBytes) / float64(s.TotalBytes)
	s.IncomingShare = float64(inBytes) / float64(s.TotalBytes)
	return s
}

// FuzzSampleMatchesMaterialized holds Sample to the materializing
// reference: every Stats field equal, floats by their bits, and the
// stream left in the same state.
func FuzzSampleMatchesMaterialized(f *testing.F) {
	for _, seed := range []uint64{7, 2012} {
		for _, flows := range []uint16{0, 1, 2, 3, 99, 100, 101} {
			f.Add(seed, false, flows)
			f.Add(seed, true, flows)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, science bool, flows uint16) {
		class := ClassWeb
		if science {
			class = ClassScience
		}
		p := DefaultParams()
		p.Flows = int(flows) % 20001
		rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
		got, want := Sample(rng, class, p), materializedSample(ref, class, p)
		if got.Class != want.Class || got.Count != want.Count ||
			got.TotalBytes != want.TotalBytes || got.MedianBytes != want.MedianBytes ||
			got.P99Bytes != want.P99Bytes || got.MaxBytes != want.MaxBytes ||
			math.Float64bits(got.ElephantShare) != math.Float64bits(want.ElephantShare) ||
			math.Float64bits(got.IncomingShare) != math.Float64bits(want.IncomingShare) {
			t.Fatalf("%s seed %d flows %d:\n got %+v\nwant %+v", class, seed, p.Flows, got, want)
		}
		if a, b := rng.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("%s seed %d flows %d: stream ends at %d, reference at %d", class, seed, p.Flows, a, b)
		}
	})
}

func TestSelectRankMatchesSort(t *testing.T) {
	dup := make([]int64, 200)
	for i := range dup {
		dup[i] = int64(i*7919) % 3
	}
	asc := make([]int64, 101)
	desc := make([]int64, 101)
	for i := range asc {
		asc[i] = int64(i)
		desc[i] = int64(len(desc) - i)
	}
	cases := map[string][]int64{
		"one":        {5},
		"two":        {9, 1},
		"two-equal":  {4, 4},
		"three":      {3, 1, 2},
		"sorted":     asc,
		"reversed":   desc,
		"all-equal":  slices.Repeat([]int64{42}, 100),
		"duplicated": dup,
		"extremes":   {math.MaxInt64, 1, math.MinInt64, 1, math.MaxInt64},
	}
	for name, in := range cases {
		sorted := slices.Clone(in)
		slices.Sort(sorted)
		for k := range in {
			a := slices.Clone(in)
			if got := selectRank(a, k); got != sorted[k] {
				t.Fatalf("%s: rank %d = %d, want %d", name, k, got, sorted[k])
			}
			// a is a permutation of in, split at k.
			for i := range a {
				if i < k && a[i] > a[k] || i > k && a[i] < a[k] {
					t.Fatalf("%s: rank %d: a[%d] = %d on the wrong side of %d", name, k, i, a[i], a[k])
				}
			}
			slices.Sort(a)
			if !slices.Equal(a, sorted) {
				t.Fatalf("%s: rank %d: selection lost or invented a value", name, k)
			}
		}
	}
}

// TestSampleAllocs pins Sample at one allocation, its size buffer.
func TestSampleAllocs(t *testing.T) {
	p := DefaultParams()
	for _, class := range []FlowClass{ClassWeb, ClassScience} {
		rng := sim.NewRNG(7)
		if n := testing.AllocsPerRun(5, func() { Sample(rng, class, p) }); n != 1 {
			t.Errorf("%s: Sample of %d flows makes %.0f allocations, want 1", class, p.Flows, n)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	p := DefaultParams()
	for _, class := range []FlowClass{ClassWeb, ClassScience} {
		b.Run(string(class), func(b *testing.B) {
			b.ReportAllocs()
			rng := sim.NewRNG(7)
			for b.Loop() {
				Sample(rng, class, p)
			}
		})
	}
}
