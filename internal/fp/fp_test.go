package fp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestHypotMatchesMath pins Hypot to math.Hypot: its special cases on
// every target, and its bits on amd64, where math.Hypot runs the same
// sequence unfused. Elsewhere math.Hypot may fuse, and Hypot is the
// reference.
func TestHypotMatchesMath(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range [][2]float64{{inf, nan}, {nan, -inf}, {nan, 1}, {0, nan}, {0, 0}, {-0.0, 0}, {3, -4}, {-1e308, 1e308}, {5e-324, 5e-324}} {
		got, want := Hypot(c[0], c[1]), math.Hypot(c[0], c[1])
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("Hypot(%v, %v) = %v, math.Hypot %v", c[0], c[1], got, want)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Hypot may fuse on %s: the special cases are the comparison", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(1))
	draws := []func() float64{
		func() float64 { return 200 * (rng.Float64() - 0.5) },
		rng.NormFloat64,
		func() float64 { return math.Float64frombits(rng.Uint64()) },
	}
	for i := 0; i < 300000; i++ {
		draw := draws[i%len(draws)]
		p, q := draw(), draw()
		if got, want := Hypot(p, q), math.Hypot(p, q); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Hypot(%v, %v) = %v, math.Hypot %v", p, q, got, want)
		}
	}
}
