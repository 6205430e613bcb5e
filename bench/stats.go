package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks, together with the number of
// samples it rests on. An empty sample yields (0, 0): callers report the
// count so a percentile is never read without its base.
func quantile(xs []float64, q float64) (v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), n
}

// quartiles returns the first quartile, the median and the third
// quartile of xs exactly as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method, which extrapolates
// for tiny samples), since that is how run-to-run spread is judged. A
// single sample gives its value three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// median of an unsorted sample.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance of xs as a share of its median;
// zero for a zero median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Verdicts of a bound comparison.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// worsening returns by what share of base the value cur is worse than
// base for a metric where lower (or higher) is better: positive when
// worse, negative when better.
func worsening(lowerIsBetter bool, base, cur float64) float64 {
	if base == 0 {
		if cur == base {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - base) / math.Abs(base)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// verdict judges a set of runs of a change (b) against a set of runs of
// its parent (a) under a bound given as a share of the parent's median:
// "unresolved" when either set's own quartile spread exceeds the bound
// (noise could explain any difference) unless every run of one side
// beats every run of the other, "worse" or "better" when the medians
// differ by more than the bound, and "within" otherwise.
func verdict(lowerIsBetter bool, bound float64, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	d := worsening(lowerIsBetter, median(a), median(b))
	if spread(a) > bound || spread(b) > bound {
		switch {
		case d > 0 && separated(lowerIsBetter, a, b):
			return verdictWorse
		case d < 0 && separated(lowerIsBetter, b, a):
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case d > bound:
		return verdictWorse
	case d < -bound:
		return verdictBetter
	}
	return verdictWithin
}

// separated reports whether every value of good beats every value of
// bad.
func separated(lowerIsBetter bool, good, bad []float64) bool {
	for _, g := range good {
		for _, x := range bad {
			if worsening(lowerIsBetter, g, x) <= 0 {
				return false
			}
		}
	}
	return true
}
