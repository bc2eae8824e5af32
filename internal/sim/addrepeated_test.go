package sim

import (
	"math"
	"testing"
)

// FuzzAddRepeatedMatchesLoop holds AddRepeated to the loop it replaces:
// the same bits after n sequential adds, NaN matching any NaN.
func FuzzAddRepeatedMatchesLoop(f *testing.F) {
	u := math.Ldexp(1, -52) // the spacing of [1, 2)
	for _, seed := range []struct {
		x, c float64
		n    int
	}{
		// Ties, whose rounding follows a's parity; k = 0 and below.
		{1, 2.5 * u, 1000}, {1, 7.5 * u, 1000}, {1, 0.5 * u, 1000}, {1, 0.49 * u, 1000},
		// A few steps below a power of two: f > 0 stops short of it, f < 0
		// lands on it.
		{2 - 3*u, 1.3 * u, 1000}, {2 - 3*u, 0.7 * u, 1000},
		// Across several binades, and a c wider than the binade.
		{1, 0.3, 100}, {1 << 19, 1 << 20, 100},
		// n = 0, 1 and around the short-run bound.
		{1, 3 * u, 0}, {1, 3 * u, 1},
		{1, 3.3 * u, ShortRun - 1}, {1, 3.3 * u, ShortRun}, {1, 3.3 * u, ShortRun + 1},
		// Negative c or x, subnormal and zero x, Inf, NaN, and an overflow.
		{1e6, -0.07, 1000}, {-1e6, 0.07, 1000}, {5e-324, 3e-323, 1000}, {0, 2.2e-308, 1000},
		{math.Inf(1), 1, 100}, {math.Inf(-1), 1, 100}, {1, math.Inf(1), 100},
		{math.NaN(), 1, 100}, {1, math.NaN(), 100}, {math.MaxFloat64 - 1e292, 1e292, 1000},
		// A quiet transfer run's two sums: bytes delivered per held tick
		// (UDR's 753 Mbit/s sender cap) and the 10 ms tick itself.
		{0, 753e6 / 8 * 0.01, 100_000}, {0, 0.01, 100_000},
	} {
		f.Add(seed.x, seed.c, seed.n)
	}
	f.Fuzz(func(t *testing.T, x, c float64, n int) {
		n = int(uint64(n) % 100_001)
		want := x
		for i := 0; i < n; i++ {
			want += c
		}
		got := AddRepeated(x, c, n)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("AddRepeated(%v, %v, %d) = %v (%#x), loop %v (%#x)", x, c, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
