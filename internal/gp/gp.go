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
// block on other hosts is answered four lanes at a time in a four-lane
// interleaved buffer (four[k][q]): the four-candidate kernel block
// writes the group's k* vectors there where the vector kernel runs
// (else each lane's row is evaluated and scattered), a group of fewer
// than four lanes repeating its last lane in the spare ones; the group
// is solved by ForwardSolve4Into (AVX2 assembly where linalg runs its
// kernels), and each lane's k·α and Σ v² are summed in k order from
// zero. PredictBlockInto answers one block on every model of an
// ensemble in turn, transposing the block's candidates for the kernel
// blocks once for all of them. The prior variance k(x, x) is
// Amp2 exactly when x is finite and no length scale is zero or NaN,
// which the block forms use instead of evaluating the kernel. The lane
// contract is bit-identity: lane l of a block returns exactly the bits
// PredictInto returns for xs[l], whatever the other lanes hold, however
// many there are and whichever kernel and solve ran, so blocking
// changes the cost of scoring and never a proposal.
//
// # Kernel rows
//
// Every kernel matrix entry and k* vector — refit, Observe/Extend,
// PredictInto and PredictBlockInto — is the Matérn-5/2 row of
// maternRow, with 1/ℓ computed once per refit, block or EvalRow call.
// On amd64 three AVX2+FMA kernels (kernel_amd64.s) evaluate it: the
// four-lane row, four training points per instruction; the
// sixteen-candidate block, which takes a full scan block's candidates
// as its lanes (transposed once per block), broadcasts each training
// point's coordinates against them in four independent chains and
// stores lane l at k·16+l, straight into the wide solve's layout; and
// the four-candidate block, which does the same for a group of four
// candidates, four training points per pass in four independent
// chains, storing point k's lanes at four[k], the four-lane solve's
// layout. A refit builds its matrix's diagonal and lower triangle
// (all Refactor reads) in column panels of sixteen training points:
// the panel's points are the sixteen-candidate block's lanes and the
// rows below them its training points, Block at a time into a stack
// chunk. The panel's lane for column j of row i computes x_j − x_i,
// the exact negation of the row's x_i − x_j, so the squares and the
// entry are the same bits. The last n mod 16 columns, the whole matrix
// below n = 16 and any matrix a panel is declined for take the row
// loop.
//
// The kernels' contract is bit-identity: each lane performs exactly
// the scalar loop's operations in its order (r² summed dimension by
// dimension with a separate multiply and add, √(5r²),
// amp2·((1+r) + r·r/3)) and computes exp(−r) with the instruction
// sequence of the FMA branch of math.Exp, its ldexp tail included for
// every r ≥ 0: a normal result, a subnormal one (r above about 708.4)
// and the underflow to +0 (above about 745.1). All three share that
// code (one assembler macro), take the tail's subnormal and underflow
// branches only for a group with some r above 708, and are therefore
// bitwise what maternRowGeneric — the unchanged scalar loop — returns;
// no proposal, snapshot or log byte depends on which one ran. A last
// group of fewer than four points runs the row kernel with its spare
// lanes repeating the last point, storing only the real lanes; the
// four-candidate block runs its last len mod 4 points one at a time.
//
// A fourth kernel on the same exp code serves a caller outside the GP:
// GaussSums, the Nadaraya–Watson sums Σ kᵢ·zᵢ and Σ kᵢ, kᵢ =
// wᵢ·exp(−d²ᵢ/c), behind internal/core's archived-runs prior m₀. It
// takes four points per instruction as the row kernel does, reading
// them in place, and needs no scratch memory. Each lane sums d² over
// the dimensions in order with a separate subtract, multiply and add,
// divides by c, takes exp(−r) with every branch of the ldexp tail and
// multiplies by wᵢ; the sums then take the lanes one by one in point
// order, so they are bitwise the scalar loop gaussSumsGeneric.
//
// The kernels run only where CPUID reports AVX2 and FMA with YMM state
// enabled by the OS (linalg.HasAVX2FMA), and only if, at package init,
// each reproduces its scalar loop bit for bit on a fixed probe; the
// probe turns all four off when math.Exp has left its FMA branch
// (GODEBUG=cpu.fma=off), whose results differ in the last bit on about
// one argument in eleven. A row or block with some r NaN or +Inf —
// only a degenerate length scale (zero, NaN, or so small its
// reciprocal overflows) or a non-finite coordinate leads there — is
// declined and recomputed by the scalar loop per lane, as are rows
// whose slices are too short for the unchecked assembly. The sums
// kernel declines the same way — some d²/c NaN or +Inf (a NaN or ±Inf
// coordinate, or one so large d² overflows), a c that is not positive,
// or a short slice — and GaussSums then runs gaussSumsGeneric over the
// whole point. Every other GOARCH runs the scalar loops. EvalRow keeps
// its reciprocal length scales in a stack buffer of 32 or 128 slots,
// and a refit's transposed panel in one of 16·32 or 16·128, so neither
// allocates nor retains anything up to 128 dimensions; wider refits
// take the row loop.
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
// points and targets. Only the matrix's diagonal and lower triangle are
// written: they are all Refactor reads.
func (g *GP) refit() error {
	n := len(g.x)
	if g.kmat == nil || g.kmat.Rows != n {
		g.kmat = linalg.NewMatrix(n, n)
	}
	var buf [bigStackDims]float64
	inv := invLengths(buf[:0], g.Kern.Lengths)
	g.kernelRows(inv, g.kernelPanels(inv))
	// Refactor in place: slice sampling refits the same n hundreds of
	// times per epoch, and the factor is the largest allocation of each.
	if g.chol == nil {
		g.chol = &linalg.Cholesky{}
	}
	if err := g.chol.Refactor(g.kmat); err != nil {
		g.chol = nil
		return err
	}
	g.refreshAlpha()
	return nil
}

// kernelRows writes the kernel matrix's diagonal and lower triangle
// from column c on, one row at a time: K[i][c..i] = maternRow(x_i,
// x_c..x_i) for i ≥ c, then the noise variance on the diagonal. At
// c = 0 it is the whole matrix.
func (g *GP) kernelRows(inv []float64, c int) {
	n := len(g.x)
	for i := c; i < n; i++ {
		row := g.kmat.Data[i*n+c : i*n+i+1]
		maternRow(g.x[i], g.x[c:i+1], inv, g.Kern.Amp2, row)
		row[i-c] += g.Noise
	}
}

// kernelPanels writes what kernelRows writes for the first
// len(x) − len(x) mod Block columns through the sixteen-candidate
// kernel block, and returns how many columns it wrote: zero where the
// vector kernels are off, above bigStackDims dimensions, for a point
// whose length is not the kernel's dimension, and when the kernel
// declines a panel. The transposed panel lives on the stack in the
// smallest size class that fits, so a refit retains and allocates
// nothing for it. The panels start to pay at one full panel: timed
// alone at the small topology's eleven dimensions, a refit (matrix and
// factor) ties the row loop at n = 16 and is faster from about 20,
// while a last panel padded out to sixteen lanes loses to the rows, so
// the last n mod 16 columns stay with the row loop.
func (g *GP) kernelPanels(inv []float64) int {
	if len(g.x) < Block || !useVectorRow {
		return 0
	}
	switch d := len(inv); {
	case d <= maxStackDims:
		var xt [Block * maxStackDims]float64
		return g.panels(inv, xt[:Block*d])
	case d <= bigStackDims:
		var xt [Block * bigStackDims]float64
		return g.panels(inv, xt[:Block*d])
	}
	return 0
}

// panels builds the matrix's full column panels, Block training points
// each, and returns the first column it did not write (zero if the
// kernel declined). Panel c's points are transposed into xt as the
// block kernel's lanes, and its rows k ≥ c run against them Block at a
// time into a stack chunk, whose lanes on or left of the diagonal are
// copied into the matrix. Lane c+l of row i is k(x_{c+l}, x_i),
// computed from x_{c+l} − x_i: the exact negation of the row loop's
// x_i − x_{c+l} under round-to-nearest, so its square, and the entry,
// are bitwise the row loop's.
func (g *GP) panels(inv, xt []float64) int {
	n := len(g.x)
	k := g.kmat.Data
	var chunk [Block * Block]float64
	c := 0
	for ; c+Block <= n; c += Block {
		if !transposeLanes(g.x[c:c+Block], xt, Block) {
			return 0
		}
		for r := c; r < n; r += Block {
			rows := g.x[r:min(r+Block, n)]
			out := chunk[:Block*len(rows)]
			if !maternBlockVector(xt, rows, inv, g.Kern.Amp2, out) {
				return 0
			}
			for t := range rows {
				i := r + t
				w := min(Block, i-c+1)
				copy(k[i*n+c:i*n+c+w], out[t*Block:t*Block+w])
				if i < c+Block {
					k[i*n+i] += g.Noise
				}
			}
		}
	}
	return c
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
	// xt is the block's candidates dimension-major: dimension j of lane
	// l at xt[j·Block+l] for a wide block, else group g of four lanes at
	// xt[4d·g:], dimension j of its lane q at xt[4d·g+4j+q].
	xt []float64
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

// wideBlock reports whether a block of m lanes takes predictWide's
// sixteen-lane path rather than groups of four.
func wideBlock(m int) bool { return m == Block && linalg.VectorSolve() }

// transpose writes the block's candidates dimension-major into s.xt
// for the kernel blocks and returns them: as the sixteen-candidate
// block's lanes for a wide block, else as groups of four lanes for the
// four-candidate block, a short group's spare lanes repeating its last
// candidate. It returns nil where the kernel blocks cannot run: the
// vector kernels off, or candidates of unequal dimension.
func (s *BlockScratch) transpose(xs [][]float64) []float64 {
	if len(xs) == 0 || !useVectorRow {
		return nil
	}
	lanes := 4
	if wideBlock(len(xs)) {
		lanes = Block
	}
	d := len(xs[0])
	if cap(s.xt) < Block*d {
		s.xt = make([]float64, Block*d)
	}
	s.xt = s.xt[:lanes*d*((len(xs)+lanes-1)/lanes)]
	for l0 := 0; l0 < len(xs); l0 += lanes {
		if !transposeLanes(xs[l0:min(l0+lanes, len(xs))], s.xt[l0*d:(l0+lanes)*d], lanes) {
			return nil
		}
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
// Outside predictWide it answers four lanes at a time: the
// four-candidate kernel block writes their k* vectors interleaved where
// the vector kernel runs (else each lane's row is evaluated and
// scattered, and a short group's spare lanes repeat its last lane), one
// four-lane forward solve runs over them, and each lane's k·α and
// Σ v_k² are summed in k order from zero, linalg.Dot's order.
func (g *GP) predictBlock(s *BlockScratch, xs [][]float64, xt, m0, mu, sigma2 []float64) {
	if g.chol == nil {
		for l, x := range xs {
			mu[l], sigma2[l] = m0[l]+g.Mean, g.Kern.Eval(x, x)
		}
		return
	}
	s.inv = invLengths(s.inv, g.Kern.Lengths)
	regular := regularLengths(g.Kern.Lengths)
	if wideBlock(len(xs)) {
		g.predictWide(s, xs, xt, m0, mu, sigma2, regular)
		return
	}
	n := len(g.x)
	s.ensureFour(n)
	for l0 := 0; l0 < len(xs); l0 += 4 {
		lanes := xs[l0:min(l0+4, len(xs))]
		d := len(lanes[0])
		if xt == nil || !maternBlock4Vector(xt[l0*d:(l0+4)*d], g.x, s.inv, g.Kern.Amp2, s.four) {
			g.fourRows(s, lanes)
		}
		var s0, s1, s2, s3 float64
		for k, f := range s.four {
			a := g.alpha[k]
			s0 += f[0] * a
			s1 += f[1] * a
			s2 += f[2] * a
			s3 += f[3] * a
		}
		dot := [4]float64{s0, s1, s2, s3}
		for q := range lanes {
			mu[l0+q] = m0[l0+q] + g.Mean + dot[q]
		}
		g.chol.ForwardSolve4Into(s.four)
		s0, s1, s2, s3 = 0, 0, 0, 0
		for _, f := range s.four {
			s0 += f[0] * f[0]
			s1 += f[1] * f[1]
			s2 += f[2] * f[2]
			s3 += f[3] * f[3]
		}
		ss := [4]float64{s0, s1, s2, s3}
		for q, x := range lanes {
			v := g.Kern.selfCov(x, regular) - ss[q]
			if v < 0 {
				v = 0
			}
			sigma2[l0+q] = v
		}
	}
}

// fourRows scatters the kernel rows of one to four lanes into s.four,
// one maternRow call per lane, a short group's spare lanes repeating
// its last lane: the four-lane path where the kernel block cannot run.
func (g *GP) fourRows(s *BlockScratch, lanes [][]float64) {
	for q, x := range lanes {
		maternRow(x, g.x, s.inv, g.Kern.Amp2, s.kstar)
		for k, v := range s.kstar {
			s.four[k][q] = v
		}
	}
	if m := len(lanes); m < 4 {
		for k := range s.four {
			f := &s.four[k]
			for q := m; q < 4; q++ {
				f[q] = f[m-1]
			}
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
