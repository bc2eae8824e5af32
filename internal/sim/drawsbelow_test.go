package sim_test

import (
	"math"
	"testing"

	"osdc/internal/experiments"
	"osdc/internal/sim"
	"osdc/internal/udr"
)

// FuzzDrawsBelowMatchesFloat64Loop holds DrawsBelow to the loop a quiet
// transfer run used to make, Float64() > limit/2^53 one draw at a time:
// the same count, the same stopping value bit for bit, and the RNG left
// at the same state (the next Uint64 equal).
func FuzzDrawsBelowMatchesFloat64Loop(f *testing.F) {
	first := sim.NewRNG(2012)
	hit := first.Uint64() >> 11
	hit2 := first.Uint64() >> 11
	f.Add(uint64(2012), uint64(1<<53), 100_000) // never stops
	f.Add(uint64(2012), uint64(0), 100_000)     // stops at once, bar a zero draw
	f.Add(uint64(2012), uint64(1<<52), 0)       // no draw at all
	f.Add(uint64(2012), hit, 100_000)           // the first draw lands on the limit: == must not stop
	f.Add(uint64(2012), hit2, 100_000)          // so does the second
	f.Add(uint64(2012), hit-1, 100_000)         // the first draw is one above it
	// The held limit of each Table 3 row at seed 2012: ⌊exp(-mean)·2^53⌋
	// for the row's binding cap over one control interval.
	path := experiments.ChicagoLVOCPath(2012)
	for _, cfg := range udr.Table3Configs() {
		pktBits := float64(path.MSS * 8)
		mean := cfg.Caps().Min() / pktBits * cfg.Controller(path).Interval() * path.Loss
		f.Add(uint64(2012), uint64(math.Exp(-mean)*(1<<53)), 100_000)
	}
	f.Fuzz(func(t *testing.T, seed, limit uint64, n int) {
		limit %= 1<<53 + 1
		n = int(uint64(n) % 100_001)
		p := float64(limit) / (1 << 53) // exact: limit ≤ 2^53
		ref := sim.NewRNG(seed)
		wantK, wantOver := 0, 0.0
		for ; wantK < n; wantK++ {
			if u := ref.Float64(); u > p {
				wantOver = u
				break
			}
		}
		r := sim.NewRNG(seed)
		k, over := r.DrawsBelow(limit, n)
		if k != wantK || math.Float64bits(over) != math.Float64bits(wantOver) {
			t.Fatalf("DrawsBelow(%d, %d) = %d, %v; loop %d, %v", limit, n, k, over, wantK, wantOver)
		}
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("DrawsBelow(%d, %d) left the RNG at next draw %#x, loop %#x", limit, n, got, want)
		}
	})
}
