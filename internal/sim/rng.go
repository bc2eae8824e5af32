package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random source (xoshiro256** core).
// We do not use math/rand's global source: simulations must be reproducible
// across packages regardless of what other code draws randomness.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from seed via SplitMix64, so even seeds 0 and
// 1 give well-mixed states.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Uint64 returns the next 64 random bits. It is the xoshiro256** step with
// its six state updates folded into one store of the four new words, which
// keeps it (and Float64 around it) cheap enough to inline.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// DrawsBelow draws up to n values and stops at the first whose top 53
// bits exceed limit. It returns k, the number of draws at or below limit,
// and, when k < n, the stopping draw as Float64 would have returned it.
// Since Float64 is exactly (x>>11)·2^-53, a run of
//
//	Float64() > p
//
// tests is one DrawsBelow(uint64(p·2^53), n) for any p in [0, 1]: scaling
// by 2^53 is exact and x>>11 is an integer, so x>>11 > p·2^53 holds
// exactly when x>>11 > ⌊p·2^53⌋. The state lives in registers for the
// whole scan and is stored once.
func (r *RNG) DrawsBelow(limit uint64, n int) (k int, over float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; k < n; k++ {
		x := bits.RotateLeft64(s1*5, 7) * 9
		s2 ^= s0
		s3 ^= s1
		s0, s1, s2, s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
		if x>>11 > limit {
			over = float64(x>>11) / float64(1<<53)
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return k, over
}

// Intn returns a uniform int in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value parameterized by the
// mean and stddev of the underlying normal.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// Heavy-tailed flow sizes in the workload generator use this.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent RNG stream; useful to give each subsystem its
// own stream so adding draws in one does not perturb another.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }
