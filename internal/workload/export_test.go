package workload

import (
	"fmt"
	"math"

	"osdc/internal/sim"
)

// Test-only generators: the census and ngram fixtures no scenario draws.

// CensusRow is one record of a synthetic census extract (social-science
// example data).
type CensusRow struct {
	Tract      string
	Population int
	MedianAge  float64
	Households int
}

// CensusTable synthesizes n census tracts.
func CensusTable(rng *sim.RNG, n int) []CensusRow {
	out := make([]CensusRow, n)
	for i := range out {
		pop := 500 + rng.Intn(8000)
		out[i] = CensusRow{
			Tract:      fmt.Sprintf("17031%06d", i),
			Population: pop,
			MedianAge:  20 + rng.Float64()*45,
			Households: pop / (2 + rng.Intn(3)),
		}
	}
	return out
}

// NGramCounts synthesizes Bookworm-style ngram counts over a tiny
// vocabulary with a Zipf-like distribution.
func NGramCounts(rng *sim.RNG, vocab []string, samples int) map[string]int {
	counts := make(map[string]int, len(vocab))
	for i := 0; i < samples; i++ {
		// Zipf via inverse-rank sampling.
		r := rng.Float64()
		rank := int(math.Pow(float64(len(vocab)), r)) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(vocab) {
			rank = len(vocab) - 1
		}
		counts[vocab[rank]]++
	}
	return counts
}
