// Package stats provides the statistics the paper's evaluation relies on:
// descriptive summaries (min/avg/max error bars), Normal and Student-t
// distributions, Welch's two-sided t-test (the p=0.05 significance calls
// in §V-D), and LOESS regression smoothing (Figures 6 and 8b).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator); NaN
// for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element; NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element; NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the min/avg/max triple the paper's error bars report.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	StdDev   float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: Min(xs), Max: Max(xs), Mean: Mean(xs)}
	if len(xs) >= 2 {
		s.StdDev = StdDev(xs)
	}
	return s
}
