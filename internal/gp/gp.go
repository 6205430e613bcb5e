// Package gp implements Gaussian-process regression as used by
// Spearmint: an ARD Matérn-5/2 kernel over the unit hypercube, exact
// inference via Cholesky factorization, and marginalization of kernel
// hyperparameters by slice sampling.
//
// # Cache lifecycle
//
// A fitted GP caches its Cholesky factor and alpha vector across calls,
// and the targets both derive from. The targets are residuals
// y − m₀(x) around whatever prior mean m₀ the caller uses: gp never
// evaluates a prior mean function. internal/bo evaluates m₀ once per
// point and hands the values in as data — subtracted from the targets
// it conditions on, and passed back per query point to the posterior
// methods. The cache supports three transitions:
//
//   - Observe appends one observation by extending the cached factor in
//     place (linalg.Cholesky.Extend, O(n²)). The result is bit-identical
//     to refitting from scratch at the same jitter; if the extension is
//     not positive definite at the recorded jitter, Observe falls back
//     to a full refit with jitter escalation.
//   - Retract drops the most recently observed point (linalg's Shrink,
//     a trailing downdate), restoring the previous factor bit-for-bit.
//     Constant-liar fantasy points are always appended last so batch
//     proposal never pays a refactorization.
//   - Fit and SetHypersAndRefit invalidate everything: new
//     hyperparameters change every kernel matrix entry, so the factor is
//     rebuilt in O(n³) — from the cached targets, which a refit never
//     recomputes. This is the only invalidation rule — anything short of
//     a refit reuses the cached factor.
//
// # Posterior queries
//
// Posterior queries never mutate the cache: Predict/PredictInto read
// the cached factor and alpha, and PredictInto is allocation-free given
// a caller-owned Scratch (safe for concurrent readers, one Scratch per
// goroutine). PredictInto and PredictBlockInto take the caller's m₀ at
// each query point and return the mean μ = (m₀ + Mean) + k·α, in that
// association; Predict is PredictInto with m₀ = 0.
//
// PredictBlockInto is the form the acquisition scorer uses: it answers
// up to Block (16) queries against the one cached factor. A full block
// — the grid scan's 16-wide blocks — is one sixteen-lane triangular
// solve over the lanes' interleaved k* vectors
// (linalg.Cholesky.ForwardSolve16Into) where linalg runs its AVX2
// kernel; a shorter block — local search's blocks of four, a scan's
// last block — and every block on other hosts is solved four lanes at
// a time (ForwardSolve4Into) plus one-lane solves for the rest. Its
// lane contract is bit-identity: lane l of a block returns exactly the
// bits PredictInto returns for xs[l], whatever the other lanes hold,
// however many there are and whichever solve ran, so blocking changes
// the cost of scoring and never a proposal.
//
// # Kernel rows
//
// Every kernel matrix row and k* vector — refit, Observe/Extend,
// PredictInto and PredictBlockInto — goes through Matern52.EvalRow. On
// amd64 the Matérn-5/2 row is evaluated four training points per
// instruction by an AVX2+FMA kernel (kernel_amd64.s) whose contract is
// bit-identity: each lane performs exactly the scalar loop's
// operations in its order (r² summed dimension by dimension with a
// separate multiply and add, √(5r²), amp2·((1+r) + r·r/3)) and
// computes exp(−r) with the instruction sequence of the FMA branch of
// math.Exp. The row is therefore bitwise what maternRowGeneric — the
// unchanged scalar loop — returns, and no proposal, snapshot or log
// byte depends on which one ran. A last group of fewer than four
// points runs the same code with its spare lanes repeating the last
// point, storing only the real lanes.
//
// The kernel runs only where CPUID reports AVX2 and FMA with YMM state
// enabled by the OS (linalg.HasAVX2FMA), and only if, at package init,
// it reproduces the scalar row bit for bit on a fixed probe row; the
// probe turns it off when math.Exp has left its FMA branch
// (GODEBUG=cpu.fma=off), whose results differ in the last bit on about
// one argument in eleven. A row with some r NaN or above 708, where
// math.Exp would take its denormal or special-value branches, is
// declined and recomputed by the scalar loop, as are rows whose slices
// are too short for the unchecked assembly. Every other GOARCH runs
// the scalar loop. The reciprocal length scales live in a stack buffer
// of 32 or 128 slots, so a row allocates nothing up to 128 dimensions.
package gp

import (
	"errors"
	"fmt"
	"math"

	"stormtune/internal/linalg"
)

// GP is a Gaussian-process regressor with a constant mean function and
// i.i.d. Gaussian observation noise, conditioned on residual targets
// around the caller's prior mean (see "Cache lifecycle"). Fit must be
// called before Predict.
type GP struct {
	Kern  *Matern52
	Noise float64 // observation noise variance σ_n²
	Mean  float64 // constant mean of the targets

	x     [][]float64
	y     []float64 // residual targets, uncentered (Mean is subtracted on solve)
	chol  *linalg.Cholesky
	alpha []float64 // K⁻¹ (y - Mean)

	// Scratch buffers reused across Fit calls (slice sampling refits the
	// same n repeatedly) and refreshAlpha.
	kmat     *linalg.Matrix
	centered []float64
	fwd      []float64
}

// New creates a GP with the given kernel and noise variance. A zero
// noise variance is clamped to a small positive value for stability.
func New(k *Matern52, noise float64) *GP {
	if noise < 1e-10 {
		noise = 1e-10
	}
	return &GP{Kern: k, Noise: noise}
}

// ErrNoData is returned by Fit when given no observations.
var ErrNoData = errors.New("gp: no observations")

// Fit conditions the GP on points x with residual targets y,
// rebuilding the cached factor from scratch (the refit invalidation
// path). The constant mean is set to the sample mean of the targets
// (empirical-Bayes choice, as Spearmint does before standardizing).
//
// The observation slices are copied, so a later Observe on this GP
// never aliases the caller's backing arrays. A failed Fit drops the
// cached factor (it was refactored in place), so the next Observe
// refits in full.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return ErrNoData
	}
	g.x = append(g.x[:0], x...)
	g.y = append(g.y[:0], y...)
	return g.refit()
}

// refit rebuilds the kernel matrix, factor and alpha on the cached
// points and targets.
func (g *GP) refit() error {
	n := len(g.x)
	if g.kmat == nil || g.kmat.Rows != n {
		g.kmat = linalg.NewMatrix(n, n)
	}
	k := g.kmat
	for i := 0; i < n; i++ {
		row := k.Data[i*n : i*n+i+1]
		g.Kern.EvalRow(g.x[i], g.x[:i+1], row)
		for j := 0; j < i; j++ {
			k.Data[j*n+i] = row[j]
		}
		k.Data[i*n+i] = row[i] + g.Noise
	}
	// Refactor in place: slice sampling refits the same n hundreds of
	// times per epoch, and the factor is the largest allocation of each.
	if g.chol == nil {
		g.chol = &linalg.Cholesky{}
	}
	if err := g.chol.Refactor(k); err != nil {
		g.chol = nil
		return err
	}
	g.refreshAlpha()
	return nil
}

// Observe appends one observation to a fitted GP, extending the cached
// factor in O(n²) instead of refitting in O(n³). The extended factor is
// bit-identical to what Fit would build on the same data at the same
// jitter; when the extension fails (the appended point makes the matrix
// indefinite at the recorded jitter) Observe transparently falls back
// to a full refit with jitter escalation. On an unfitted GP it behaves
// like a one-point Fit.
func (g *GP) Observe(x []float64, y float64) error {
	n := len(g.x)
	g.x = append(g.x, x)
	g.y = append(g.y, y)
	if g.chol == nil || n == 0 {
		return g.refit()
	}
	if cap(g.fwd) < n {
		g.fwd = make([]float64, n)
	}
	row := g.fwd[:n]
	g.Kern.EvalRow(x, g.x[:n], row)
	diag := g.Kern.Eval(x, x) + g.Noise
	if err := g.chol.Extend(row, diag); err != nil {
		return g.refit()
	}
	g.refreshAlpha()
	return nil
}

// Retract removes the most recently observed point, restoring the
// previous factor bit-for-bit (a trailing downdate via Shrink). x
// identifies the point: it must match the trailing row. Retracting the
// last remaining point returns the GP to its unfitted state.
func (g *GP) Retract(x []float64) error {
	n := len(g.x)
	if n == 0 {
		return errors.New("gp: retract on empty GP")
	}
	if x != nil && len(g.x[n-1]) == len(x) {
		for i, v := range x {
			if g.x[n-1][i] != v {
				return errors.New("gp: retract point is not the most recent observation")
			}
		}
	}
	g.x = g.x[:n-1]
	g.y = g.y[:n-1]
	if n == 1 {
		g.chol = nil
		g.alpha = nil
		g.Mean = 0
		return nil
	}
	if err := g.chol.Shrink(n - 1); err != nil {
		return err
	}
	g.refreshAlpha()
	return nil
}

// refreshAlpha recomputes the constant mean and alpha vector from the
// cached targets and factor. The accumulation order matches Fit's, so
// an incrementally maintained GP and a freshly fitted one agree
// bit-for-bit.
func (g *GP) refreshAlpha() {
	n := len(g.y)
	mean := 0.0
	for _, r := range g.y {
		mean += r
	}
	g.Mean = mean / float64(n)
	if cap(g.centered) < n {
		g.centered = make([]float64, n)
		g.fwd = make([]float64, n)
	}
	c := g.centered[:n]
	for i, r := range g.y {
		c[i] = r - g.Mean
	}
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	g.chol.ForwardSolveInto(g.fwd[:n], c)
	g.chol.BackSolveInto(g.alpha, g.fwd[:n])
}

// N returns the number of conditioning observations.
func (g *GP) N() int { return len(g.x) }

// Jitter reports the diagonal jitter of the cached factorization, zero
// when unfitted.
func (g *GP) Jitter() float64 {
	if g.chol == nil {
		return 0
	}
	return g.chol.Jitter
}

// Scratch holds per-caller buffers for PredictInto. A single Scratch
// must not be shared between goroutines; the model itself may be read
// concurrently.
type Scratch struct {
	kstar []float64
	v     []float64
}

func (s *Scratch) ensure(n int) {
	if cap(s.kstar) < n {
		s.kstar = make([]float64, n)
		s.v = make([]float64, n)
	}
	s.kstar = s.kstar[:n]
	s.v = s.v[:n]
}

// Block is the most queries PredictBlockInto answers per call: the
// width of linalg's interleaved vector forward solve.
const Block = linalg.Lanes

// BlockScratch holds per-caller buffers for PredictBlockInto: one
// Scratch per lane for blocks solved four lanes at a time, and the
// interleaved right-hand sides of a full block's one wide solve. Like
// Scratch, it must not be shared between goroutines.
type BlockScratch struct {
	lanes [Block]Scratch
	kstar []float64 // one lane's k*, copied into wide
	wide  []float64 // Block·n, lane l's entry k at wide[k·Block+l]
}

func (s *BlockScratch) ensureWide(n int) {
	if cap(s.kstar) < n {
		s.kstar = make([]float64, n)
		s.wide = make([]float64, Block*n)
	}
	s.kstar = s.kstar[:n]
	s.wide = s.wide[:Block*n]
}

// forwardSolve solves L v = kstar for the first m lanes: four lanes
// per interleaved solve, then the remaining m mod 4 one at a time.
// Either way each lane's v is bitwise PredictInto's.
func (s *BlockScratch) forwardSolve(c *linalg.Cholesky, m int) {
	l := 0
	for ; l+4 <= m; l += 4 {
		var dst, b [4][]float64
		for q := range dst {
			dst[q], b[q] = s.lanes[l+q].v, s.lanes[l+q].kstar
		}
		c.ForwardSolve4Into(dst, b)
	}
	for ; l < m; l++ {
		c.ForwardSolveInto(s.lanes[l].v, s.lanes[l].kstar)
	}
}

// Predict returns the posterior mean and variance of the latent
// function at xs under a zero prior mean. The variance excludes
// observation noise.
func (g *GP) Predict(xs []float64) (mu, sigma2 float64) {
	var s Scratch
	return g.PredictInto(&s, xs, 0)
}

// PredictInto is Predict at a point whose prior mean is m0, with
// caller-owned scratch buffers: zero allocations after the first call
// on a given Scratch.
func (g *GP) PredictInto(s *Scratch, xs []float64, m0 float64) (mu, sigma2 float64) {
	if g.chol == nil {
		return m0 + g.Mean, g.Kern.Eval(xs, xs)
	}
	n := len(g.x)
	s.ensure(n)
	g.Kern.EvalRow(xs, g.x, s.kstar)
	mu = m0 + g.Mean + linalg.Dot(s.kstar, g.alpha)
	g.chol.ForwardSolveInto(s.v, s.kstar)
	sigma2 = g.Kern.Eval(xs, xs) - linalg.Dot(s.v, s.v)
	if sigma2 < 0 {
		sigma2 = 0
	}
	return mu, sigma2
}

// PredictBlockInto is PredictInto for 1..Block points sharing the
// triangular solves; see "Posterior queries" in the package comment.
func (g *GP) PredictBlockInto(s *BlockScratch, xs [][]float64, m0, mu, sigma2 []float64) {
	if g.chol == nil {
		for l, x := range xs {
			mu[l], sigma2[l] = m0[l]+g.Mean, g.Kern.Eval(x, x)
		}
		return
	}
	if len(xs) == Block && linalg.VectorSolve() {
		g.predictWide(s, xs, m0, mu, sigma2)
		return
	}
	n := len(g.x)
	for l, x := range xs {
		ls := &s.lanes[l]
		ls.ensure(n)
		g.Kern.EvalRow(x, g.x, ls.kstar)
		mu[l] = m0[l] + g.Mean + linalg.Dot(ls.kstar, g.alpha)
	}
	s.forwardSolve(g.chol, len(xs))
	for l, x := range xs {
		v := s.lanes[l].v
		s2 := g.Kern.Eval(x, x) - linalg.Dot(v, v)
		if s2 < 0 {
			s2 = 0
		}
		sigma2[l] = s2
	}
}

// predictWide answers a full block with one vector forward solve over
// the lanes' interleaved k* vectors. Each lane's Σ v_k² is summed in k
// order from zero, linalg.Dot's order, so every lane is bitwise
// PredictInto's.
func (g *GP) predictWide(s *BlockScratch, xs [][]float64, m0, mu, sigma2 []float64) {
	n := len(g.x)
	s.ensureWide(n)
	for l, x := range xs {
		g.Kern.EvalRow(x, g.x, s.kstar)
		mu[l] = m0[l] + g.Mean + linalg.Dot(s.kstar, g.alpha)
		for k, v := range s.kstar {
			s.wide[k*Block+l] = v
		}
	}
	g.chol.ForwardSolve16Into(s.wide)
	var vv [Block]float64
	for k := 0; k < n; k++ {
		for l, v := range s.wide[k*Block : k*Block+Block] {
			vv[l] += v * v
		}
	}
	for l, x := range xs {
		s2 := g.Kern.Eval(x, x) - vv[l]
		if s2 < 0 {
			s2 = 0
		}
		sigma2[l] = s2
	}
}

// LogMarginalLikelihood returns log p(y | x, θ) for the currently
// fitted data under the current hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.chol == nil {
		return math.Inf(-1)
	}
	n := float64(len(g.y))
	resid := make([]float64, len(g.y))
	for i, r := range g.y {
		resid[i] = r - g.Mean
	}
	return -0.5*linalg.Dot(resid, g.alpha) - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}

// HyperVector returns the current full log-space hyperparameter vector
// (kernel hypers followed by log noise) — the parameterization
// SliceSampleHypers and SetHypersAndRefit speak.
func (g *GP) HyperVector() []float64 { return g.hypers() }

// hypers returns the full log-space parameter vector:
// [kernel hypers…, log noise].
func (g *GP) hypers() []float64 {
	kh := g.Kern.Hypers()
	return append(kh, math.Log(g.Noise))
}

// setHypers installs a full log-space parameter vector and refits on
// the cached points and targets.
func (g *GP) setHypers(h []float64) error {
	nk := len(g.Kern.Hypers())
	g.Kern.SetHypers(h[:nk])
	g.Noise = math.Exp(h[nk])
	if g.x == nil {
		return nil
	}
	return g.refit()
}

// SetHypersAndRefit installs a full log-space hyperparameter vector
// (kernel hypers followed by log noise, as produced by
// SliceSampleHypers) and refits the GP on its current data. This is the
// cache invalidation point: every cached quantity — kernel matrix,
// factor, alpha — is rebuilt under the new hyperparameters.
func (g *GP) SetHypersAndRefit(h []float64) error {
	if len(h) != len(g.Kern.Hypers())+1 {
		return fmt.Errorf("gp: want %d hypers, got %d", len(g.Kern.Hypers())+1, len(h))
	}
	return g.setHypers(h)
}

// Clone returns a GP sharing no mutable state with g. Conditioning data
// slices are shared (they are never mutated).
func (g *GP) Clone() *GP {
	out := &GP{Kern: g.Kern.Clone(), Noise: g.Noise, Mean: g.Mean}
	if g.x != nil {
		// Refit to rebuild factorization against the cloned kernel.
		if err := out.Fit(g.x, g.y); err != nil {
			// Cloning a successfully fitted GP with identical
			// hyperparameters cannot fail; keep the zero state if it
			// somehow does.
			out.chol = nil
		}
	}
	return out
}
