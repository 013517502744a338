// Package fp holds standard-library float functions made portable. The Go
// spec lets a compiler fuse x*y + z into one rounding; gc does on arm64,
// ppc64le, s390x and riscv64, in package math's pure-Go bodies too, and
// never on amd64. A copy here converts every such product to float64.
package fp

import "math"

// Hypot is math.Hypot's body, special cases included, with q*q rounded
// before the add: alike on every target, and bit-equal to math.Hypot on
// amd64, whose assembly runs the same sequence unfused.
func Hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	if !(p <= math.MaxFloat64 && q <= math.MaxFloat64) { // one compare pair on the finite path
		if math.IsInf(p, 1) || math.IsInf(q, 1) {
			return math.Inf(1)
		}
		return math.NaN()
	}
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q = q / p
	return p * math.Sqrt(1+float64(q*q))
}
