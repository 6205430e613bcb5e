package gp

import (
	"fmt"
	"math"
	"math/rand"

	"stormtune/internal/linalg"
)

// RFF is a random-Fourier-feature approximation of GP regression
// (Rahimi & Recht): the kernel is approximated by an explicit
// m-dimensional feature map φ(x) = √(2σ²/m)·cos(Wx + b), turning the
// posterior into Bayesian linear regression over the features. Observe
// is a rank-1 Cholesky update of the m×m feature Gram factor — O(m²),
// constant in the number of observations — which is what keeps a
// months-long tuning session with tens of thousands of trials
// responsive. Retract is the matching rank-1 downdate.
//
// The frequency matrix W and phases b are drawn once at construction
// from a fixed seed, so every posterior quantity is deterministic for a
// given (kernel hypers, seed, observation sequence) — the same
// reproducibility contract stormlint enforces on the exact path.
// Hyperparameters are frozen at construction: changing them means
// building a new RFF (internal/bo freezes hypers when it crosses the
// approximation threshold).
type RFF struct {
	Noise float64 // observation noise variance σ_n²

	m     int
	dim   int
	amp2  float64
	w     []float64 // m×dim frequency rows, flattened
	phase []float64 // m phases in [0, 2π)
	scale float64   // √(2·amp²/m)

	chol     *linalg.Cholesky // factor of ΦᵀΦ + σ_n² I (m×m)
	bRaw     []float64        // Σ_i φ(x_i)·resid_i
	sPhi     []float64        // Σ_i φ(x_i)
	sumResid float64
	n        int
	mean     float64
	wmean    []float64 // posterior weight mean A⁻¹(bRaw − mean·sPhi)
	phi      []float64 // Observe/Retract scratch
	rhs      []float64 // refresh scratch: right-hand side
	fwdBuf   []float64 // refresh scratch: forward-solve output
}

// NewRFF builds an m-feature approximation of the given kernel at its
// current hyperparameters. Matérn-5/2 frequencies are sampled from the
// kernel's spectral density (a multivariate t with 5 degrees of
// freedom: scaled Gaussian draws divided by √(χ²₅/5)); squared
// exponential uses plain Gaussian frequencies. Unsupported kernels
// return an error so callers can stay on the exact path.
func NewRFF(kern Kernel, noise float64, m int, seed int64) (*RFF, error) {
	if m <= 0 {
		return nil, fmt.Errorf("gp: rff needs m > 0, got %d", m)
	}
	if noise < 1e-10 {
		noise = 1e-10
	}
	var (
		amp2    float64
		lengths []float64
		matern  bool
	)
	switch k := kern.(type) {
	case *Matern52:
		amp2, lengths, matern = k.Amp2, k.Lengths, true
	case *SquaredExp:
		amp2, lengths, matern = k.Amp2, k.Lengths, false
	default:
		return nil, fmt.Errorf("gp: rff does not support kernel %T", kern)
	}
	d := len(lengths)
	r := &RFF{
		Noise:  noise,
		m:      m,
		dim:    d,
		amp2:   amp2,
		w:      make([]float64, m*d),
		phase:  make([]float64, m),
		scale:  math.Sqrt(2 * amp2 / float64(m)),
		bRaw:   make([]float64, m),
		sPhi:   make([]float64, m),
		wmean:  make([]float64, m),
		phi:    make([]float64, m),
		rhs:    make([]float64, m),
		fwdBuf: make([]float64, m),
	}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < m; j++ {
		row := r.w[j*d : (j+1)*d]
		for k := 0; k < d; k++ {
			row[k] = rng.NormFloat64() / lengths[k]
		}
		if matern {
			// t-distributed frequencies with 2ν = 5 dof: scale the
			// Gaussian row by √(5/q), q ~ χ²₅.
			q := 0.0
			for t := 0; t < 5; t++ {
				g := rng.NormFloat64()
				q += g * g
			}
			f := math.Sqrt(5 / q)
			for k := range row {
				row[k] *= f
			}
		}
		r.phase[j] = 2 * math.Pi * rng.Float64()
	}
	// Zero observations: A = σ_n² I, so L = σ_n·I directly.
	l := linalg.NewMatrix(m, m)
	sn := math.Sqrt(noise)
	for j := 0; j < m; j++ {
		l.Data[j*m+j] = sn
	}
	r.chol = &linalg.Cholesky{L: l}
	return r, nil
}

// features fills dst with φ(x).
func (r *RFF) features(x []float64, dst []float64) {
	for j := 0; j < r.m; j++ {
		s := r.phase[j]
		row := r.w[j*r.dim : (j+1)*r.dim]
		for k, v := range x {
			s += row[k] * v
		}
		dst[j] = r.scale * math.Cos(s)
	}
}

// N returns the number of conditioning observations.
func (r *RFF) N() int { return r.n }

// M returns the number of random features.
func (r *RFF) M() int { return r.m }

// Observe folds one point and its residual target into the model: a
// rank-1 update of the feature Gram factor plus O(m) accumulator
// updates, independent of how many observations came before. It cannot
// fail (a rank-1 update preserves positive definiteness) but keeps the
// error in its signature to satisfy Surrogate.
func (r *RFF) Observe(x []float64, resid float64) error {
	r.features(x, r.phi)
	r.chol.Update(r.phi)
	for j, p := range r.phi {
		r.bRaw[j] += p * resid
		r.sPhi[j] += p
	}
	r.sumResid += resid
	r.n++
	r.refresh()
	return nil
}

// Retract removes a previously observed point via the matching rank-1
// downdate. Callers retract in reverse observation order (the constant-
// liar contract); downdating a point that was actually observed cannot
// make the Gram matrix indefinite except through rounding, in which
// case the factor is left unchanged and the error tells the caller to
// rebuild.
func (r *RFF) Retract(x []float64, resid float64) error {
	if r.n == 0 {
		return fmt.Errorf("gp: retract on empty rff model")
	}
	r.features(x, r.phi)
	if err := r.chol.Downdate(r.phi); err != nil {
		return err
	}
	for j, p := range r.phi {
		r.bRaw[j] -= p * resid
		r.sPhi[j] -= p
	}
	r.sumResid -= resid
	r.n--
	r.refresh()
	return nil
}

// refresh recomputes the constant mean and posterior weight mean after
// an Observe/Retract: solve (ΦᵀΦ + σ_n² I) w = Φᵀ(resid − mean).
func (r *RFF) refresh() {
	if r.n == 0 {
		r.mean = 0
		for j := range r.wmean {
			r.wmean[j] = 0
		}
		return
	}
	r.mean = r.sumResid / float64(r.n)
	for j := range r.rhs {
		r.rhs[j] = r.bRaw[j] - r.mean*r.sPhi[j]
	}
	r.chol.ForwardSolveInto(r.fwdBuf, r.rhs)
	r.chol.BackSolveInto(r.wmean, r.fwdBuf)
}

// Predict returns the approximate posterior mean and latent variance at
// xs under a zero prior mean.
func (r *RFF) Predict(xs []float64) (mu, sigma2 float64) {
	var s Scratch
	return r.PredictInto(&s, xs, 0)
}

// PredictInto is Predict at a point whose prior mean is m0, with
// caller-owned scratch: φ(xs) into the scratch, mean from the weight
// posterior, variance from one triangular solve — O(m²) per query,
// constant in n.
func (r *RFF) PredictInto(s *Scratch, xs []float64, m0 float64) (mu, sigma2 float64) {
	s.ensure(r.m)
	r.features(xs, s.kstar)
	mu = m0 + r.mean + linalg.Dot(s.kstar, r.wmean)
	r.chol.ForwardSolveInto(s.v, s.kstar)
	sigma2 = r.Noise * linalg.Dot(s.v, s.v)
	if sigma2 < 0 {
		sigma2 = 0
	}
	return mu, sigma2
}

// PredictBlockInto is PredictInto for 1..Block points: the m-feature
// variance solves run as one interleaved solve against the m×m factor.
func (r *RFF) PredictBlockInto(s *BlockScratch, xs [][]float64, m0, mu, sigma2 []float64) {
	for l, x := range xs {
		ls := &s.lanes[l]
		ls.ensure(r.m)
		r.features(x, ls.kstar)
		mu[l] = m0[l] + r.mean + linalg.Dot(ls.kstar, r.wmean)
	}
	s.forwardSolve(r.chol, len(xs))
	for l := range xs {
		v := s.lanes[l].v
		s2 := r.Noise * linalg.Dot(v, v)
		if s2 < 0 {
			s2 = 0
		}
		sigma2[l] = s2
	}
}

var (
	_ Surrogate = (*GP)(nil)
	_ Surrogate = (*RFF)(nil)
)
