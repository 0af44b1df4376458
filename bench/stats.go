package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported tail
// percentile: a percentile with fewer samples above it is one or two
// outliers, not a tail.
const tailBeyond = 10

// median returns the middle of the values (the mean of the two middle ones
// for an even count), or NaN when there are none.
func median(vals []float64) float64 {
	s := sorted(vals)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest percentile of vals that has at least tailBeyond
// samples above it, and that percentile. With n samples it is the
// (tailBeyond+1)-th largest, at percentile 100·(n−tailBeyond)/n. It never
// reports below the median: with fewer than 2·tailBeyond samples the median
// is returned at percentile 50.
func tail(vals []float64) (value, pct float64) {
	s := sorted(vals)
	n := len(s)
	if n < 2*tailBeyond {
		return median(vals), 50
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of vals, or 0
// when there are none.
func percentile(vals []float64, q float64) float64 {
	s := sorted(vals)
	if len(s) == 0 {
		return 0
	}
	// The slack keeps a q·n that lands on an integer from rounding up past
	// it (0.99·800 is 792, not 793).
	return s[max(int(math.Ceil(q*float64(len(s))-1e-9))-1, 0)]
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(vals, n=4) (the default "exclusive"
// method), so spreads reported here match those a Python harness computes
// from the same values. Fewer than two values give NaN.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(median(vals))
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// Verdicts of a parent-versus-change comparison of one metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares the change's runs b against the parent's runs a for a
// metric whose good direction is higherBetter, under the benchmark's bound
// (a share of the parent's median). The change is worse or better when its
// median moved by more than the bound in that direction. When either side's
// run-to-run spread exceeds the bound the medians cannot show that, so the
// metric is unresolved — unless every run of one side beats every run of
// the other, which no spread can explain away.
func verdict(a, b []float64, bound float64, higherBetter bool) (string, error) {
	if len(a) == 0 || len(b) == 0 {
		return "", fmt.Errorf("need runs on both sides, have %d and %d", len(a), len(b))
	}
	// In cost terms lower is better for every metric.
	cost := func(vals []float64) []float64 {
		out := sorted(vals)
		if higherBetter {
			for i, v := range out {
				out[i] = -v
			}
			sort.Float64s(out)
		}
		return out
	}
	ca, cb := cost(a), cost(b)
	// worse > 0: b's median costs that share of a's median more.
	worse := 0.0
	if ma, mb := median(ca), median(cb); ma != mb {
		worse = (mb - ma) / math.Abs(ma)
	}
	if len(a) > 1 && len(b) > 1 && (spread(a) > bound || spread(b) > bound) {
		switch {
		case cb[len(cb)-1] < ca[0]:
			return verdictBetter, nil
		case cb[0] > ca[len(ca)-1]:
			return verdictWorse, nil
		}
		return verdictUnresolved, nil
	}
	switch {
	case worse > bound:
		return verdictWorse, nil
	case -worse > bound:
		return verdictBetter, nil
	}
	return verdictUnchanged, nil
}
