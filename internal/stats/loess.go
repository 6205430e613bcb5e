package stats

import (
	"math"
	"sort"
)

// Loess computes locally weighted linear regression (LOESS, degree 1)
// with tricube weights at each of the requested evaluation points.
// span is the fraction of points in each local neighbourhood — the
// paper uses span 0.75 for Figure 6 and Figure 8b.
//
// xs need not be sorted; ties are allowed. The returned slice holds the
// smoothed value at each eval point.
func Loess(xs, ys []float64, span float64, evalAt []float64) []float64 {
	if len(xs) != len(ys) {
		panic("stats: Loess input length mismatch")
	}
	n := len(xs)
	out := make([]float64, len(evalAt))
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	if span <= 0 {
		span = 0.75
	}
	k := int(math.Ceil(span * float64(n)))
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}

	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })

	dist := make([]float64, n)
	w := make([]float64, n)
	for ei, x0 := range evalAt {
		for i, p := range pts {
			dist[i] = math.Abs(p.x - x0)
		}
		// k-th smallest distance defines the bandwidth.
		ds := append([]float64(nil), dist...)
		sort.Float64s(ds)
		h := ds[k-1]
		if h == 0 {
			h = 1e-12
		}
		// Tricube weights.
		var sw, swx, swy, swxx, swxy float64
		for i, p := range pts {
			u := dist[i] / h
			if u >= 1 {
				w[i] = 0
				continue
			}
			t := 1 - u*u*u
			w[i] = t * t * t
			sw += w[i]
			swx += w[i] * p.x
			swy += w[i] * p.y
			swxx += w[i] * p.x * p.x
			swxy += w[i] * p.x * p.y
		}
		if sw == 0 {
			out[ei] = math.NaN()
			continue
		}
		// Weighted least squares line through the neighbourhood.
		den := sw*swxx - swx*swx
		if math.Abs(den) < 1e-12*math.Max(1, math.Abs(sw*swxx)) {
			out[ei] = swy / sw
			continue
		}
		beta := (sw*swxy - swx*swy) / den
		alpha := (swy - beta*swx) / sw
		out[ei] = alpha + beta*x0
	}
	return out
}
