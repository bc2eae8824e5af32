package workload

import (
	"testing"

	"osdc/internal/sim"
)

func TestWebFlowsAreSmall(t *testing.T) {
	rng := sim.NewRNG(1)
	flows := Generate(rng, ClassWeb, DefaultParams())
	s := Characterize(flows)
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
	flows := Generate(rng, ClassScience, DefaultParams())
	s := Characterize(flows)
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
	web := Characterize(Generate(rng, ClassWeb, DefaultParams()))
	sci := Characterize(Generate(rng, ClassScience, DefaultParams()))
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
	s := Characterize(nil)
	if s.Count != 0 || s.TotalBytes != 0 {
		t.Fatal("empty stats not zero")
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
		if got := human(in); got != want {
			t.Fatalf("human(%d) = %q, want %q", in, got, want)
		}
	}
}
