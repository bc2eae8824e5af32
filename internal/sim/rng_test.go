package sim

import "testing"

// referenceRNG is the xoshiro256** step as first written: the state
// updated in place, word by word, with a hand-rolled rotate.
type referenceRNG struct{ s [4]uint64 }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (r *referenceRNG) uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// TestRNGMatchesReference holds Uint64 to the reference step: every draw
// and the state after it, over many seeds, plus the first draws of two
// seeds as known answers, so the stream every golden was cut from cannot
// drift with the reference.
func TestRNGMatchesReference(t *testing.T) {
	for _, known := range []struct {
		seed uint64
		want [4]uint64
	}{
		{0, [4]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c}},
		{2012, [4]uint64{0x014a862f159fad09, 0x825ee5d1dd03d4b7, 0x2c29298fe81176b5, 0xadbb959cf3c5c034}},
	} {
		r := NewRNG(known.seed)
		for i, want := range known.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %d draw %d = %#x, want %#x", known.seed, i, got, want)
			}
		}
	}
	for seed := uint64(0); seed < 20; seed++ {
		r := NewRNG(seed*0x9E3779B97F4A7C15 + 2012)
		ref := referenceRNG{s: r.s}
		for i := 0; i < 500_000; i++ {
			if got, want := r.Uint64(), ref.uint64(); got != want || r.s != ref.s {
				t.Fatalf("seed %d draw %d: %#x state %x, reference %#x state %x", seed, i, got, r.s, want, ref.s)
			}
		}
	}
}
