package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of xs: the smallest sample with
// at least a q share of the samples at or below it. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns Q1, median and Q3 with the same interpolation as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// the repeat mode reports spreads the way they are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles: m = n+1; j-th cut at position j*m/4.
		pos := float64(j*(n+1)) / 4
		k := int(math.Floor(pos))
		f := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*f
	}
	return at(1), at(2), at(3)
}
