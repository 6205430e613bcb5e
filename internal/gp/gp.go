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
// up to Block (16) queries against each model's one cached factor,
// with the model's reciprocal length scales computed once per block. A full
// block — the grid scan's 16-wide blocks — builds the lanes' k*
// vectors interleaved, one sixteen-candidate kernel block where the
// vector kernel runs (see "Kernel rows"), and solves them in one
// sixteen-lane triangular solve (linalg.Cholesky.ForwardSolve16Into)
// where linalg runs its AVX2 kernel; each lane's k·α and Σ v² are then
// summed in k order from zero by four-accumulator AVX2 loops over the
// interleaved buffer, each lane bitwise linalg.Dot. A shorter block —
// local search's blocks of four, a scan's last block — and every
// block on other hosts evaluates one kernel row per lane, scatters it
// into a four-lane interleaved buffer and is solved four lanes at a
// time (ForwardSolve4Into, AVX2 assembly where linalg runs its
// kernels), a group of fewer than four lanes repeating its last lane
// in the spare ones; each lane's Σ v² is then summed in k order from
// zero. PredictBlockInto answers one block on every model of an
// ensemble in turn, transposing a full block's candidates for the
// kernel block once for all of them. The prior variance k(x, x) is
// Amp2 exactly when x is finite and no length scale is zero or NaN,
// which the block forms use instead of evaluating the kernel. The lane
// contract is bit-identity: lane l of a block returns exactly the bits
// PredictInto returns for xs[l], whatever the other lanes hold, however
// many there are and whichever kernel and solve ran, so blocking
// changes the cost of scoring and never a proposal.
//
// # Kernel rows
//
// Every kernel matrix row and k* vector — refit, Observe/Extend,
// PredictInto and PredictBlockInto — is the Matérn-5/2 row of
// maternRow, with 1/ℓ computed once per refit, block or EvalRow call.
// On amd64 two AVX2+FMA kernels (kernel_amd64.s) evaluate it: the
// four-lane row, four training points per instruction, and the
// sixteen-candidate block, which takes a full scan block's candidates
// as its lanes (transposed once per block), broadcasts each training
// point's coordinates against them in four independent chains and
// stores lane l at k·16+l, straight into the wide solve's layout.
// Their contract is bit-identity: each lane performs exactly the
// scalar loop's operations in its order (r² summed dimension by
// dimension with a separate multiply and add, √(5r²),
// amp2·((1+r) + r·r/3)) and computes exp(−r) with the instruction
// sequence of the FMA branch of math.Exp, its ldexp tail included for
// every r ≥ 0: a normal result, a subnormal one (r above about 708.4)
// and the underflow to +0 (above about 745.1). Both kernels share that
// code (one assembler macro), take the tail's subnormal and underflow
// branches only for a group with some r above 708, and are therefore
// bitwise what maternRowGeneric — the unchanged scalar loop — returns;
// no proposal, snapshot or log byte depends on which one ran. A last
// group of fewer than four points runs the row kernel with its spare
// lanes repeating the last point, storing only the real lanes.
//
// The kernels run only where CPUID reports AVX2 and FMA with YMM state
// enabled by the OS (linalg.HasAVX2FMA), and only if, at package init,
// each reproduces the scalar row bit for bit on a fixed probe; the
// probe turns both off when math.Exp has left its FMA branch
// (GODEBUG=cpu.fma=off), whose results differ in the last bit on about
// one argument in eleven. A row or block with some r NaN or +Inf —
// only a degenerate length scale (zero, NaN, or so small its
// reciprocal overflows) or a non-finite coordinate leads there — is
// declined and recomputed by the scalar loop per lane, as are rows
// whose slices are too short for the unchecked assembly. Every other
// GOARCH runs the scalar loop. EvalRow keeps its reciprocal length
// scales in a stack buffer of 32 or 128 slots, so a row allocates
// nothing up to 128 dimensions.
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
	var buf [bigStackDims]float64
	inv := invLengths(buf[:0], g.Kern.Lengths)
	for i := 0; i < n; i++ {
		row := k.Data[i*n : i*n+i+1]
		maternRow(g.x[i], g.x[:i+1], inv, g.Kern.Amp2, row)
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
// lane's k* row, the interleaved right-hand sides of a four-lane solve
// and of a full block's one wide solve, the model's reciprocal length
// scales and the block's transposed candidates. Like Scratch, it must
// not be shared between goroutines.
type BlockScratch struct {
	kstar []float64    // one lane's k*, copied into four or wide
	four  [][4]float64 // n, lane q's entry k at four[k][q]
	wide  []float64    // Block·n, lane l's entry k at wide[k·Block+l]
	inv   []float64    // 1/ℓ of the model answering the block
	xt    []float64    // Block·d, dimension j of lane l at xt[j·Block+l]
}

func (s *BlockScratch) ensureFour(n int) {
	if cap(s.kstar) < n {
		s.kstar = make([]float64, n)
	}
	s.kstar = s.kstar[:n]
	if cap(s.four) < n {
		s.four = make([][4]float64, n)
	}
	s.four = s.four[:n]
}

func (s *BlockScratch) ensureWide(n int) {
	if cap(s.kstar) < n {
		s.kstar = make([]float64, n)
	}
	s.kstar = s.kstar[:n]
	if cap(s.wide) < Block*n {
		s.wide = make([]float64, Block*n)
	}
	s.wide = s.wide[:Block*n]
}

// transpose writes a full block's candidates dimension-major into s.xt
// for the sixteen-candidate kernel block and returns them, or nil where
// the kernel block cannot run: a short block, the vector kernels off,
// or candidates of unequal dimension.
func (s *BlockScratch) transpose(xs [][]float64) []float64 {
	if len(xs) != Block || !useVectorRow || !linalg.VectorSolve() {
		return nil
	}
	d := len(xs[0])
	if cap(s.xt) < Block*d {
		s.xt = make([]float64, Block*d)
	}
	s.xt = s.xt[:Block*d]
	if !transposeBlock((*[Block][]float64)(xs), s.xt) {
		return nil
	}
	return s.xt
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
// triangular solves, on each of models in turn: model i's posteriors
// land in mu[i·Block:] and sigma2[i·Block:], each lane bitwise
// PredictInto's. A full block's candidates are transposed for the
// kernel block once for all the models. See "Posterior queries" in the
// package comment.
func PredictBlockInto(models []*GP, s *BlockScratch, xs [][]float64, m0, mu, sigma2 []float64) {
	xt := s.transpose(xs)
	for i, g := range models {
		lo := i * Block
		g.predictBlock(s, xs, xt, m0, mu[lo:lo+len(xs)], sigma2[lo:lo+len(xs)])
	}
}

// predictBlock answers xs on g; xt is the block transposed, or nil.
func (g *GP) predictBlock(s *BlockScratch, xs [][]float64, xt, m0, mu, sigma2 []float64) {
	if g.chol == nil {
		for l, x := range xs {
			mu[l], sigma2[l] = m0[l]+g.Mean, g.Kern.Eval(x, x)
		}
		return
	}
	s.inv = invLengths(s.inv, g.Kern.Lengths)
	regular := regularLengths(g.Kern.Lengths)
	if len(xs) == Block && linalg.VectorSolve() {
		g.predictWide(s, xs, xt, m0, mu, sigma2, regular)
		return
	}
	n := len(g.x)
	s.ensureFour(n)
	for l0 := 0; l0 < len(xs); l0 += 4 {
		m := min(4, len(xs)-l0)
		for q, x := range xs[l0 : l0+m] {
			maternRow(x, g.x, s.inv, g.Kern.Amp2, s.kstar)
			mu[l0+q] = m0[l0+q] + g.Mean + linalg.Dot(s.kstar, g.alpha)
			for k, v := range s.kstar {
				s.four[k][q] = v
			}
		}
		// A short group's spare lanes repeat its last lane: the solve
		// runs four lanes whatever m is.
		if m < 4 {
			for k := range s.four {
				f := &s.four[k]
				for q := m; q < 4; q++ {
					f[q] = f[m-1]
				}
			}
		}
		g.chol.ForwardSolve4Into(s.four)
		for q, x := range xs[l0 : l0+m] {
			// Σ v_k² in k order from zero: linalg.Dot(v, v)'s order.
			ss := 0.0
			for k := range s.four {
				v := s.four[k][q]
				ss += v * v
			}
			s2 := g.Kern.selfCov(x, regular) - ss
			if s2 < 0 {
				s2 = 0
			}
			sigma2[l0+q] = s2
		}
	}
}

// predictWide answers a full block with interleaved k* vectors: the
// sixteen-candidate kernel block writes them in place where the vector
// kernel runs (else each lane's row is evaluated and scattered), one
// vector forward solve runs over them, and each lane's k·α and Σ v_k²
// are summed in k order from zero, linalg.Dot's order, so every lane is
// bitwise PredictInto's. It runs only where linalg's vector solve is
// on, so the AVX2 lane sums are available. xt is the block as
// BlockScratch.transpose wrote it (nil evaluates row by row), and s.inv
// holds the model's reciprocal length scales.
func (g *GP) predictWide(s *BlockScratch, xs [][]float64, xt, m0, mu, sigma2 []float64, regular bool) {
	s.ensureWide(len(g.x))
	if xt == nil || !maternBlockVector(xt, g.x, s.inv, g.Kern.Amp2, s.wide) {
		for l, x := range xs {
			maternRow(x, g.x, s.inv, g.Kern.Amp2, s.kstar)
			for k, v := range s.kstar {
				s.wide[k*Block+l] = v
			}
		}
	}
	var sum [Block]float64
	laneDot16(s.wide, g.alpha, &sum)
	for l := range xs {
		mu[l] = m0[l] + g.Mean + sum[l]
	}
	g.chol.ForwardSolve16Into(s.wide)
	laneSquares16(s.wide, &sum)
	for l, x := range xs {
		s2 := g.Kern.selfCov(x, regular) - sum[l]
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
	// refreshAlpha left the centered targets y − Mean in g.centered.
	n := len(g.y)
	return -0.5*linalg.Dot(g.centered[:n], g.alpha) - 0.5*g.chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
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
	nk := 1 + len(g.Kern.Lengths) // log σ², then log ℓ per dimension
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
