package sim

import "math"

// ShortRun is the run length below which AddRepeated is a plain loop, and
// below which the bulk paths built on it (a UDT ramp, a quiet transfer
// run) take their ticks one at a time: a single step costs one add.
const ShortRun = 16

// AddRepeated returns x after n sequential x += c, bit for bit. Write a
// positive normal x as a·u, with a an integer in [2^52, 2^53) and u the
// spacing of x's binade. q = c/u is exact (u is a power of two), and while
// the exact sum stays below 2^53·u every add rounds to x + k·u, k = round(q),
// unless q is a tie, whose rounding follows a's parity. So the adds that
// stay in the binade are one exact add of m·k·u; the add that leaves it is
// an ordinary one, as is any add a tie, q ≥ 2^52 or an x that is not a
// positive normal makes.
//
// For c > 0 the partial sums never decrease, so the n-th sum bounds every
// earlier one: a caller that needs all n steps below a limit checks only
// the last.
func AddRepeated(x, c float64, n int) float64 {
	if n < ShortRun || !(c > 0) {
		for ; n > 0; n-- {
			x += c
		}
		return x
	}
	for n > 0 {
		bits := math.Float64bits(x)
		exp := int(bits >> 52) // the sign bit makes a negative x ≥ 0x800
		u := math.Ldexp(1, exp-1075)
		q := c / u
		k := math.Round(q)
		if f := q - k; exp > 0 && exp < 0x7ff && q < 1<<52 && f != 0.5 && f != -0.5 {
			if k == 0 {
				return x // q < 1/2: x + c rounds back to x
			}
			// The exact sum a + k + f must stay below 2^53.
			room := int64(1<<53) - int64(bits&(1<<52-1)|1<<52)
			if f >= 0 {
				room--
			}
			m := min(int64(n), room/int64(k))
			x += float64(m*int64(k)) * u
			if n -= int(m); n == 0 {
				return x
			}
		}
		x += c
		n--
	}
	return x
}
