package gp

import (
	"fmt"
	"math"

	"stormtune/internal/linalg"
)

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

// regularLengths reports whether every length scale is non-zero and
// not NaN: the condition under which selfCov of a finite point is
// exactly Amp2.
func regularLengths(lengths []float64) bool {
	for _, l := range lengths {
		if l == 0 || math.IsNaN(l) {
			return false
		}
	}
	return true
}

// selfCov returns Eval(x, x), the prior variance at x. When x is finite
// and regular reports regularLengths of k.Lengths, every term
// (x_i − x_i)/ℓ_i is ±0, so r = 0 and Eval returns Amp2·(1+0+0)·exp(−0)
// = Amp2 exactly: selfCov returns Amp2 without evaluating the kernel.
// Any other case takes Eval.
func (k *Matern52) selfCov(x []float64, regular bool) float64 {
	if !regular {
		return k.Eval(x, x)
	}
	// v − v is +0 for finite v and NaN for ±Inf or NaN.
	s := 0.0
	for _, v := range x {
		s += v - v
	}
	if s != 0 {
		return k.Eval(x, x)
	}
	return k.Amp2
}

// transposeBlock writes a block's candidates dimension-major into xt,
// xt[j·Block+l] = cands[l][j], and reports whether it could: every
// candidate must hold d = len(xt)/Block values.
func transposeBlock(cands *[Block][]float64, xt []float64) bool {
	d := len(xt) / Block
	for l, c := range cands {
		if len(c) != d {
			return false
		}
		for j, v := range c {
			xt[j*Block+l] = v
		}
	}
	return true
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

// EvalRow evaluates one input against many in a single call:
// dst[i] = k(x, xs[i]). The per-dimension inverse length scales are
// computed once per row instead of once per pair; the GP's refit and
// block queries compute them once per refit or block and call
// maternRow, the row EvalRow runs, directly.
//
// EvalRow multiplies by precomputed reciprocals where Eval divides, so
// the two may differ in the last ulp. The GP uses this one row
// consistently on every internal path, which is what makes the
// incremental factor updates bit-identical to batch refactorization.
// Where the host supports it the row is evaluated four training points
// at a time (see "Kernel rows" in the package comment), and it must
// return the bits its scalar loop, maternRowGeneric, returns on the
// same host.
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
// vector kernel declines (some r NaN or +Inf).
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
func (k *Matern52) Clone() *Matern52 {
	return &Matern52{Amp2: k.Amp2, Lengths: linalg.CloneVec(k.Lengths)}
}
