package transport

import (
	"math"
	"testing"

	"osdc/internal/sim"
)

// TestQuietRunMatchesTickLoop holds heldTick.quietRun to the loop it
// replaced, one draw and two adds a tick: the same tick count, delivered,
// t and stopping draw bit for bit, and the RNG left at the same state.
// The cases reach each way a run ends (a loss, the last byte, 100 days)
// and a chunk whose sum rounds past its estimate, which must be taken
// back and retried.
func TestQuietRunMatchesTickLoop(t *testing.T) {
	for _, tc := range []struct {
		name             string
		mean             float64 // Poisson mean per held tick; 0 draws nothing
		bytes, delivered float64
		total            float64
		dt, start        sim.Duration
	}{
		{"loss ends it", 1e-4, 9.4e6, 0, 108 << 30, 0.01, 0},
		{"last byte ends it", 1e-9, 9.4e6, 0, 20 << 30, 0.01, 0},
		{"lossless", 0, 9.4e6, 1 << 30, 2e12, 0.01, 3},
		{"100 days end it", 0, 1e-3, 0, 1e12, 0.01, 100*sim.Day - 5e4},
		{"mean too small to lose", 1e-17, 4e6, 0, 1e12, 0.01, 0},
		// Each add of 1.5 to a delivered in [2^53, 2^54) rounds to 2, so
		// the estimate from 1.5 a tick overshoots by a third.
		{"sum rounds past the estimate", 0, 1.5, 1 << 53, 1<<53 + 3e6, 0.01, 0},
		{"sum rounds past the estimate, drawing", 1e-9, 1.5, 1 << 53, 1<<53 + 3e6, 0.01, 0},
		{"few ticks left", 0, 1000, 0, 20_500, 0.01, 0},
		{"a loss in the last few ticks", 2, 1000, 0, 10_500, 0.01, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := heldTick{bytes: tc.bytes, dt: tc.dt, limit: uint64(math.Exp(-tc.mean) * (1 << 53)), draws: tc.mean > 0}
			expNeg := math.Exp(-tc.mean)
			ref := sim.NewRNG(2012)
			wantN, wantD, wantT, wantFirst := 0, tc.delivered, tc.start, 0.0
			for {
				if tc.mean > 0 {
					if u := ref.Float64(); u > expNeg {
						wantFirst = u
						break
					}
				}
				wantD += tc.bytes
				wantT += tc.dt
				wantN++
				if wantD >= tc.total || wantT > 100*sim.Day {
					break
				}
			}
			rng := sim.NewRNG(2012)
			n, d, tt, first := h.quietRun(rng, tc.delivered, tc.total, tc.start)
			if n != wantN || d != wantD || tt != wantT || math.Float64bits(first) != math.Float64bits(wantFirst) {
				t.Fatalf("quietRun = %d ticks, delivered %v, t %v, first %v; tick loop %d, %v, %v, %v", n, d, tt, first, wantN, wantD, wantT, wantFirst)
			}
			if got, want := rng.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("quietRun left the RNG at next draw %#x, tick loop %#x", got, want)
			}
		})
	}
}
