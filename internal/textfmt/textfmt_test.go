package textfmt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

var widths = []int{0, 1, 3, 8, 14, -1, -3, -8, -14}

// TestMatchesFmt compares every appender with the fmt verb it replaces,
// over edge values and seeded random ones, at every width above.
func TestMatchesFmt(t *testing.T) {
	check := func(got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Fatalf("got %q, fmt prints %q", got, want)
		}
	}
	strs := []string{"", "a", "nn", "streamcluster", "pathfinder-long-name", "naïve", "\xff\xfe", "日本"}
	floats := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 0.0005, 0.00049, 9.9995, 99.95, -3.5e-9,
		1e21, 1e300, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ints := []int64{0, 1, -1, 9, 10, 999, 1000, -1000, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewPCG(5, 6))
	for range 2000 {
		floats = append(floats, r.NormFloat64()*math.Pow(10, float64(r.IntN(24)-12)))
		ints = append(ints, int64(r.Uint64()))
	}
	for _, w := range widths {
		for _, s := range strs {
			check(Str([]byte("x"), s, w), fmt.Sprintf("x%*s", w, s))
		}
		for _, v := range ints {
			check(Int([]byte("x"), v, w), fmt.Sprintf("x%*d", w, v))
		}
		for _, v := range floats {
			for _, prec := range []int{0, 1, 2, 3} {
				check(Float([]byte("x"), v, w, prec), fmt.Sprintf("x%*.*f", w, prec, v))
			}
		}
	}
}

// TestNoAllocs: appending to a buffer with room allocates nothing.
func TestNoAllocs(t *testing.T) {
	b := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		b = Float(Int(Str(b[:0], "kernel", -14), -42, 5), 3.14159, 10, 3)
	}); n != 0 {
		t.Errorf("%v allocations per append, want 0", n)
	}
}

// TestAppendFixedMatchesStrconv compares appendFixed with strconv's 'f'
// form over seeded values of every magnitude, at every precision it serves
// and past it: carries into the next power of ten, values below the last
// decimal, exact ties, powers of ten, signed zero, NaN and the infinities.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	check := func(v float64, prec int) {
		var got, want [64]byte
		if g, w := appendFixed(got[:0], v, prec), strconv.AppendFloat(want[:0], v, 'f', prec, 64); string(g) != string(w) {
			t.Fatalf("appendFixed(%v, %d) = %q, strconv %q", v, prec, g, w)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64,
		9.9995, 9.99951, 9.9996, 0.9996, 0.09996, 99.95, 999.5, 0.5, 1.5, 2.5, 0.125, 0.375, 0.0625,
		0.0005, 0.0004, 0.00049999, 0.0015, 1e-3, 1e-9, 1e-10, 1e16, 1e17, 99999999999999984, 123456789012345.675,
	}
	for k := -12; k <= 22; k++ {
		p := math.Pow(10, float64(k))
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), 5*p, 9.5*p, 0.5*p)
	}
	for _, v := range edges {
		for prec := -1; prec <= maxFixedPrec+2; prec++ {
			check(v, prec)
			check(-v, prec)
		}
	}
	n := 10_000_000
	if testing.Short() || raceEnabled {
		n = 200_000
	}
	r := rand.New(rand.NewPCG(11, 12))
	for i := range n {
		var v float64
		switch {
		case i%100 == 0: // arbitrary bits (strconv is slow on huge ones)
			v = math.Float64frombits(r.Uint64())
		case i%3 == 0: // any magnitude the renders print
			v = r.NormFloat64() * math.Pow(10, float64(r.IntN(30)-12))
		case i%3 == 1: // near a rounding boundary: k + 0.5 units of the last decimal
			prec := r.IntN(4)
			v = (float64(r.IntN(200000)) + 0.5) / math.Pow(10, float64(prec))
		default: // short decimals, as ratios of small integers
			v = float64(r.IntN(100000)) / float64(1+r.IntN(1000))
		}
		check(v, i%(maxFixedPrec+2))
	}
}
