package gp

import (
	"math"

	"stormtune/internal/linalg"
)

// useVectorRow gates both AVX2+FMA kernels, the four-lane row and the
// sixteen-candidate block: the host must have the instructions, with
// YMM state enabled by the OS (linalg's feature check, shared with its
// vector forward solve), and each kernel must reproduce
// maternRowGeneric bit for bit on a fixed probe. The probe catches a
// math.Exp that has left its FMA path (GODEBUG=cpu.fma=off), whose
// results the vector exp would no longer match.
var useVectorRow = linalg.HasAVX2FMA() && vectorRowMatchesProbe()

// maternRowVector evaluates the row with the four-lane kernel and
// reports whether it did. It declines when the kernel is off, when a
// slice is too short for the unchecked assembly to index, and when some
// lane's r is NaN or +Inf; the caller then evaluates the row with
// maternRowGeneric.
func maternRowVector(x []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) bool {
	if !useVectorRow || len(inv) < len(x) || len(dst) < len(xs) {
		return false
	}
	for _, xi := range xs {
		if len(xi) < len(x) {
			return false
		}
	}
	return maternRow4(x, inv, xs, dst, amp2)
}

// maternRow4 sets dst[i] = amp2·(1 + r + r²/3)·exp(−r), with
// r = √(5·Σ_j ((x_j − xs[i]_j)·inv_j)²), four rows per instruction,
// each lane computing exactly the scalar loop's operations, exp over
// every r ≥ 0 its underflow included. It returns false, with dst partly
// written, when some r is NaN or +Inf — where math.Exp takes its
// special-value branches. Every xs[i] must hold len(x) values, inv
// len(x), and dst len(xs).
//
//go:noescape
func maternRow4(x, inv []float64, xs [][]float64, dst []float64, amp2 float64) bool

// maternBlockVector evaluates the kernel rows of Block candidates at
// once, candidate-major: dst[k·Block+l] = k(cand l, xs[k]), bitwise
// what maternRowGeneric returns for each candidate. xt holds the
// candidates dimension-major, as transposeBlock writes them. It
// reports false, leaving dst partly written, where maternRowVector
// would decline: the kernel is off, a slice is too short, or some r is
// NaN or +Inf.
func maternBlockVector(xt []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) bool {
	d := len(xt) / Block
	if !useVectorRow || len(inv) < d || len(dst) < Block*len(xs) {
		return false
	}
	for _, xi := range xs {
		if len(xi) < d {
			return false
		}
	}
	return maternBlock16(xt[:Block*d], inv[:d], xs, dst, amp2)
}

// maternBlock16 sets dst[k·16+l] = amp2·(1 + r + r²/3)·exp(−r), with
// r = √(5·Σ_j ((xt[j·16+l] − xs[k]_j)·inv_j)²), sixteen candidates per
// training point in four independent chains, each lane computing
// exactly maternRow4's operations. It returns false, with dst partly
// written, when some r is NaN or +Inf. xt must hold 16·len(inv) values,
// every xs[k] len(inv), and dst 16·len(xs).
//
//go:noescape
func maternBlock16(xt, inv []float64, xs [][]float64, dst []float64, amp2 float64) bool

// laneDot16 sets dst[l] = Σ_k y[k·16+l]·b[k], k ascending from zero with
// the product and the sum rounded separately: lane l is bitwise
// linalg.Dot of its entries with b. It needs AVX2 (linalg.HasAVX2FMA),
// and len(y) ≥ 16·len(b).
//
//go:noescape
func laneDot16(y, b []float64, dst *[Block]float64)

// laneSquares16 sets dst[l] = Σ_k y[k·16+l]², k ascending from zero:
// lane l is bitwise linalg.Dot(v, v) of its entries. It needs AVX2, and
// len(y) must be a multiple of 16.
//
//go:noescape
func laneSquares16(y []float64, dst *[Block]float64)

// vectorRowMatchesProbe compares both vector kernels with
// maternRowGeneric on a fixed row: 67 points in 7 dimensions (a masked
// tail of three lanes for the row kernel) at distances that spread
// exp's argument over [−10, 0], queried from one point by maternRow4
// and from the first sixteen points by maternBlock16. The FMA and
// non-FMA math.Exp sequences disagree in the last bit on about one
// argument in eleven, so a math.Exp off its FMA path fails the
// comparison.
func vectorRowMatchesProbe() bool {
	const d, n = 7, 67
	x := make([]float64, d)
	inv := make([]float64, d)
	for j := range x {
		x[j] = 0.5 + 0.05*float64(j)
		inv[j] = 1 / (0.15 + 0.1*float64(j))
	}
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = math.Mod(0.7548776662466927*float64(i+1)+0.5698402909980532*float64(j+1), 1)
		}
	}
	same := func(got, want []float64) bool {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	got := make([]float64, n)
	want := make([]float64, n)
	maternRowGeneric(x, xs, inv, 1.3, want)
	if !maternRow4(x, inv, xs, got, 1.3) || !same(got, want) {
		return false
	}
	xt := make([]float64, Block*d)
	for l := 0; l < Block; l++ {
		for j, v := range xs[l] {
			xt[j*Block+l] = v
		}
	}
	wide := make([]float64, Block*n)
	if !maternBlock16(xt, inv, xs, wide, 1.3) {
		return false
	}
	for l := 0; l < Block; l++ {
		maternRowGeneric(xs[l], xs, inv, 1.3, want)
		for k := range got {
			got[k] = wide[k*Block+l]
		}
		if !same(got, want) {
			return false
		}
	}
	return true
}
