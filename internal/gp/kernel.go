package gp

import (
	"fmt"
	"math"

	"stormtune/internal/linalg"
)

// Kernel is a positive-definite covariance function over R^d.
type Kernel interface {
	// EvalRow evaluates one input against many in a single call:
	// dst[i] = k(x, xs[i]). The GP hot path (kernel-matrix rows in
	// Fit/Observe, k* vectors in Predict) goes through EvalRow:
	// per-dimension inverse length scales are computed once per
	// row instead of once per pair, and the interface dispatch happens
	// once per row instead of once per training point.
	//
	// Note EvalRow multiplies by precomputed reciprocals where Eval
	// divides, so the two may differ in the last ulp. The GP uses EvalRow
	// consistently on every internal path, which is what makes the
	// incremental factor updates bit-identical to batch refactorization.
	// An implementation may evaluate the row with vector instructions
	// (Matern52 does on amd64, see "Kernel rows"), but must return the
	// bits its scalar loop returns on the same host.
	EvalRow(x []float64, xs [][]float64, dst []float64)

	// Eval returns k(a, b).
	Eval(a, b []float64) float64
	// Dim returns the input dimensionality the kernel is configured for.
	Dim() int
	// Hypers returns the current hyperparameters in log space (the
	// parameterization used by the slice sampler).
	Hypers() []float64
	// SetHypers installs hyperparameters from log space.
	SetHypers(h []float64)
	// Clone returns an independent copy.
	Clone() Kernel
}

// Matern52 is the ARD Matérn-5/2 kernel Spearmint defaults to:
//
//	k(a,b) = σ² (1 + √5 r + 5r²/3) exp(-√5 r),  r² = Σ (a_i-b_i)²/ℓ_i²
type Matern52 struct {
	Amp2    float64   // signal variance σ²
	Lengths []float64 // per-dimension length scales ℓ_i
}

// NewMatern52 builds a Matérn-5/2 kernel with unit amplitude and the
// given initial length scale in every one of d dimensions.
func NewMatern52(d int, length float64) *Matern52 {
	ls := make([]float64, d)
	for i := range ls {
		ls[i] = length
	}
	return &Matern52{Amp2: 1, Lengths: ls}
}

// Eval returns the Matérn-5/2 covariance between a and b.
func (k *Matern52) Eval(a, b []float64) float64 {
	r2 := 0.0
	for i := range a {
		d := (a[i] - b[i]) / k.Lengths[i]
		r2 += d * d
	}
	r := math.Sqrt(5 * r2)
	return k.Amp2 * (1 + r + r*r/3) * math.Exp(-r)
}

// maxStackDims is the small size class of the stack-allocated
// reciprocal-length buffer in EvalRow, and bigStackDims the large one:
// a row zeroes the smallest class that fits its dimension, so the
// synthetic topologies' spaces (11, 51 and 101 parameters) evaluate
// rows without allocating, and a low-dimensional row never pays to
// clear the large buffer. Wider spaces fall back to a heap slice.
const (
	maxStackDims = 32
	bigStackDims = 128
)

// invLengths fills a buffer with 1/ℓ_i, reusing buf when it is large
// enough.
func invLengths(buf, lengths []float64) []float64 {
	if cap(buf) < len(lengths) {
		buf = make([]float64, len(lengths))
	}
	buf = buf[:len(lengths)]
	for i, l := range lengths {
		buf[i] = 1 / l
	}
	return buf
}

// EvalRow sets dst[i] = k(x, xs[i]) without per-pair divisions. Where
// the host supports it the row is evaluated four training points at a
// time (see "Kernel rows" in the package comment), bit for bit what
// maternRowGeneric returns.
func (k *Matern52) EvalRow(x []float64, xs [][]float64, dst []float64) {
	switch d := len(k.Lengths); {
	case d <= maxStackDims:
		var buf [maxStackDims]float64
		maternRow(x, xs, invLengths(buf[:0], k.Lengths), k.Amp2, dst)
	case d <= bigStackDims:
		var buf [bigStackDims]float64
		maternRow(x, xs, invLengths(buf[:0], k.Lengths), k.Amp2, dst)
	default:
		maternRow(x, xs, invLengths(nil, k.Lengths), k.Amp2, dst)
	}
}

// maternRow evaluates a Matérn-5/2 row with the vector kernel when it
// can, and with maternRowGeneric otherwise — including every row the
// vector kernel declines (a lane outside its exp range).
func maternRow(x []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) {
	if !maternRowVector(x, xs, inv, amp2, dst) {
		maternRowGeneric(x, xs, inv, amp2, dst)
	}
}

// maternRowGeneric is the scalar Matérn-5/2 row: the path on every
// architecture without a vector kernel, and the oracle the vector
// kernel is tested against bit for bit.
func maternRowGeneric(x []float64, xs [][]float64, inv []float64, amp2 float64, dst []float64) {
	for i, xi := range xs {
		r2 := 0.0
		for j, v := range x {
			d := (v - xi[j]) * inv[j]
			r2 += d * d
		}
		r := math.Sqrt(5 * r2)
		dst[i] = amp2 * (1 + r + r*r/3) * math.Exp(-r)
	}
}

// Dim returns the number of input dimensions.
func (k *Matern52) Dim() int { return len(k.Lengths) }

// Hypers returns [log σ², log ℓ_1 … log ℓ_d].
func (k *Matern52) Hypers() []float64 {
	h := make([]float64, 1+len(k.Lengths))
	h[0] = math.Log(k.Amp2)
	for i, l := range k.Lengths {
		h[i+1] = math.Log(l)
	}
	return h
}

// SetHypers installs [log σ², log ℓ…].
func (k *Matern52) SetHypers(h []float64) {
	if len(h) != 1+len(k.Lengths) {
		panic(fmt.Sprintf("gp: Matern52 wants %d hypers, got %d", 1+len(k.Lengths), len(h)))
	}
	k.Amp2 = math.Exp(h[0])
	for i := range k.Lengths {
		k.Lengths[i] = math.Exp(h[i+1])
	}
}

// Clone returns an independent copy.
func (k *Matern52) Clone() Kernel {
	return &Matern52{Amp2: k.Amp2, Lengths: linalg.CloneVec(k.Lengths)}
}

// SquaredExp is the ARD squared-exponential (RBF) kernel:
//
//	k(a,b) = σ² exp(-½ Σ (a_i-b_i)²/ℓ_i²)
type SquaredExp struct {
	Amp2    float64
	Lengths []float64
}

// NewSquaredExp builds an RBF kernel with unit amplitude and the given
// initial length scale in every one of d dimensions.
func NewSquaredExp(d int, length float64) *SquaredExp {
	ls := make([]float64, d)
	for i := range ls {
		ls[i] = length
	}
	return &SquaredExp{Amp2: 1, Lengths: ls}
}

// Eval returns the RBF covariance between a and b.
func (k *SquaredExp) Eval(a, b []float64) float64 {
	r2 := 0.0
	for i := range a {
		d := (a[i] - b[i]) / k.Lengths[i]
		r2 += d * d
	}
	return k.Amp2 * math.Exp(-0.5*r2)
}

// EvalRow sets dst[i] = k(x, xs[i]) without per-pair divisions.
func (k *SquaredExp) EvalRow(x []float64, xs [][]float64, dst []float64) {
	var stack [maxStackDims]float64
	inv := invLengths(stack[:0], k.Lengths)
	amp2 := k.Amp2
	for i, xi := range xs {
		r2 := 0.0
		for j, v := range x {
			d := (v - xi[j]) * inv[j]
			r2 += d * d
		}
		dst[i] = amp2 * math.Exp(-0.5*r2)
	}
}

// Dim returns the number of input dimensions.
func (k *SquaredExp) Dim() int { return len(k.Lengths) }

// Hypers returns [log σ², log ℓ_1 … log ℓ_d].
func (k *SquaredExp) Hypers() []float64 {
	h := make([]float64, 1+len(k.Lengths))
	h[0] = math.Log(k.Amp2)
	for i, l := range k.Lengths {
		h[i+1] = math.Log(l)
	}
	return h
}

// SetHypers installs [log σ², log ℓ…].
func (k *SquaredExp) SetHypers(h []float64) {
	if len(h) != 1+len(k.Lengths) {
		panic(fmt.Sprintf("gp: SquaredExp wants %d hypers, got %d", 1+len(k.Lengths), len(h)))
	}
	k.Amp2 = math.Exp(h[0])
	for i := range k.Lengths {
		k.Lengths[i] = math.Exp(h[i+1])
	}
}

// Clone returns an independent copy.
func (k *SquaredExp) Clone() Kernel {
	return &SquaredExp{Amp2: k.Amp2, Lengths: linalg.CloneVec(k.Lengths)}
}
