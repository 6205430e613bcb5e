package bo

import (
	"errors"
	"math"

	"stormtune/internal/gp"
)

// HyperState is the serializable hyperparameter posterior of a running
// optimizer: the slice samples of the current refit epoch. A retune
// session seeds its first epoch from the incumbent session's HyperState
// (Options.InitHypers), skipping the cold slice-sampling burn — the
// cache-reuse contract between core retune sessions and their
// incumbents.
type HyperState struct {
	Hypers [][]float64 `json:"hypers"`
}

// HyperState returns a copy of the optimizer's current hyperparameter
// samples, or nil before the first surrogate refit.
func (opt *Optimizer) HyperState() *HyperState {
	if len(opt.cache.hypers) == 0 {
		return nil
	}
	hs := &HyperState{Hypers: make([][]float64, len(opt.cache.hypers))}
	for i, h := range opt.cache.hypers {
		hs.Hypers[i] = append([]float64(nil), h...)
	}
	return hs
}

// fantasyPoint is one constant-liar fantasy conditioned into the
// surrogate ensemble: a pending point and its residual target (the
// standardized lie minus the prior mean there), fixed at append time so
// retraction can replay the exact inverse.
type fantasyPoint struct {
	u []float64
	r float64
}

// modelCache is the per-optimizer surrogate cache. Everything under
// "epoch state" is frozen between hyperparameter refits; everything
// under "conditioning state" tracks what the ensemble is currently
// conditioned on (real observations first, fantasies last — the
// canonical order that makes fantasy retraction a trailing downdate).
//
// Invalidation rule: only a refit epoch (refitEpoch) replaces the epoch
// state; observations and fantasies between epochs extend and retract
// the cached factors incrementally.
type modelCache struct {
	// epoch state
	my, sy float64     // frozen y-standardization
	hypers [][]float64 // slice samples (log space), one per ensemble member
	fitN   int         // observation count at the last refit
	approx bool        // past ApproxAfter: RFF ensemble, hypers frozen for good

	// conditioning state
	models []gp.Surrogate
	nObs   int // real observations conditioned into models
	fant   []fantasyPoint
}

// hyperFitCap bounds the conditioning set used for slice sampling when
// an epoch starts above the approximation threshold (cold start on a
// huge history): hypers are fit on a deterministic strided subset.
const hyperFitCap = 256

// needRefit reports whether the next suggestion must start a new refit
// epoch. The schedule is a pure function of the observation count (no
// clock, no RNG): refit on every new observation while the history is
// tiny, then only after ~25% growth — that amortization is what turns
// slice sampling from a per-ask cost into a per-epoch one. Once the
// approximate regime is entered hypers are frozen permanently.
func (opt *Optimizer) needRefit() bool {
	c := &opt.cache
	if len(c.hypers) == 0 || c.fitN == 0 {
		return true
	}
	if c.approx {
		return false
	}
	n := len(opt.obs)
	if n == c.fitN {
		return false
	}
	if n < 16 {
		return true
	}
	step := c.fitN / 4
	if step < 1 {
		step = 1
	}
	return n >= c.fitN+step
}

// refitEpoch starts a new epoch: freeze the y-standardization on the
// current training set and draw fresh hyperparameter samples (slice
// sampling, the only RNG consumer on the model side). Models are not
// built here — the per-ask sync constructs or extends them against the
// new epoch state. On the first epoch, Options.InitHypers short-
// circuits the sampling entirely.
func (opt *Optimizer) refitEpoch() error {
	c := &opt.cache
	d := opt.Space.D()
	xs, ys, m0 := opt.trainingSet()
	if len(ys) == 0 {
		return gp.ErrNoData
	}
	my, sy := meanStd(ys)
	n := len(opt.obs)
	approx := opt.approxThreshold() > 0 && n > opt.approxThreshold() && opt.Opts.MaxGPPoints <= 0

	var hypers [][]float64
	if c.fitN == 0 && opt.Opts.InitHypers != nil {
		hypers = opt.validInitHypers(d)
	}
	if hypers == nil {
		fx, fy := xs, residuals(ys, m0, my, sy)
		if approx && len(fx) > hyperFitCap {
			// Deterministic strided subset: slice sampling on the full
			// history would be O(n³) per posterior evaluation.
			stride := len(fx) / hyperFitCap
			sx := make([][]float64, 0, hyperFitCap)
			sy2 := make([]float64, 0, hyperFitCap)
			for i := 0; i < len(fx) && len(sx) < hyperFitCap; i += stride {
				sx = append(sx, fx[i])
				sy2 = append(sy2, fy[i])
			}
			fx, fy = sx, sy2
		}
		g := gp.New(opt.Opts.Kernel(d), opt.Opts.NoiseVar)
		if err := g.Fit(fx, fy); err != nil {
			return err
		}
		if opt.Opts.HyperSamples <= 1 {
			g.FitMAP(opt.rng, 5)
			hypers = [][]float64{g.HyperVector()}
		} else {
			hypers = g.SliceSampleHypers(opt.rng, opt.Opts.HyperSamples, 1)
		}
	}
	if len(hypers) == 0 {
		return errors.New("bo: no hyperparameter samples")
	}
	c.my, c.sy = my, sy
	c.hypers = hypers
	c.fitN = n
	c.approx = approx
	// Epoch state changed: every cached factor is invalid.
	c.models = nil
	c.nObs = 0
	c.fant = nil
	return nil
}

// validInitHypers filters Options.InitHypers down to vectors matching
// the kernel's hyperparameter count, returning nil when nothing
// survives (the epoch then samples normally).
func (opt *Optimizer) validInitHypers(d int) [][]float64 {
	want := len(opt.Opts.Kernel(d).Hypers()) + 1
	var out [][]float64
	for _, h := range opt.Opts.InitHypers.Hypers {
		if len(h) == want {
			out = append(out, append([]float64(nil), h...))
		}
	}
	return out
}

// approxThreshold resolves the exact→approximate switchover point:
// Options.ApproxAfter, defaulting to 1024, with negative values
// disabling the approximation entirely.
func (opt *Optimizer) approxThreshold() int {
	switch {
	case opt.Opts.ApproxAfter < 0:
		return 0
	case opt.Opts.ApproxAfter == 0:
		return 1024
	default:
		return opt.Opts.ApproxAfter
	}
}

// rebuildModels constructs the surrogate ensemble from scratch for the
// current epoch, conditioned on the training window plus the given
// fantasies (in that canonical order). This is the cold path: the first
// ask of each refit epoch, windowed (MaxGPPoints) sessions and recovery
// from a failed incremental update land here, and tests drive it on
// every ask as the reference the incremental path is pinned against.
func (opt *Optimizer) rebuildModels(fant []fantasyPoint) error {
	c := &opt.cache
	d := opt.Space.D()
	xs, ys, m0 := opt.trainingSet()
	if len(ys) == 0 {
		return gp.ErrNoData
	}
	axs := append(make([][]float64, 0, len(xs)+len(fant)), xs...)
	ars := residuals(ys, m0, c.my, c.sy)
	for _, f := range fant {
		axs = append(axs, f.u)
		ars = append(ars, f.r)
	}

	models := make([]gp.Surrogate, len(c.hypers))
	if c.approx {
		parallelFor(opt.Opts.Workers, len(c.hypers), func(k int) {
			models[k] = opt.buildRFF(d, c.hypers[k], axs, ars)
		})
	} else {
		parallelFor(opt.Opts.Workers, len(c.hypers), func(k int) {
			g := gp.New(opt.Opts.Kernel(d), opt.Opts.NoiseVar)
			if err := g.SetHypersAndRefit(c.hypers[k]); err != nil {
				return
			}
			if err := g.Fit(axs, ars); err != nil {
				return
			}
			models[k] = g
		})
	}
	compact := models[:0]
	for _, m := range models {
		if m != nil {
			compact = append(compact, m)
		}
	}
	if len(compact) == 0 {
		return errors.New("bo: surrogate ensemble is empty")
	}
	c.models = compact
	c.nObs = len(opt.obs)
	c.fant = append(c.fant[:0], fant...)
	return nil
}

// buildRFF constructs one random-Fourier-feature ensemble member at the
// given hyper sample and conditions it on points xs with residual
// targets rs. Falls back to an exact GP when the kernel has no spectral
// sampler.
func (opt *Optimizer) buildRFF(d int, h []float64, xs [][]float64, rs []float64) gp.Surrogate {
	kern := opt.Opts.Kernel(d)
	nk := len(kern.Hypers())
	if len(h) != nk+1 {
		return nil
	}
	kern.SetHypers(h[:nk])
	noise := math.Exp(h[nk])
	m := opt.Opts.RFFFeatures
	if m <= 0 {
		m = 256
	}
	r, err := gp.NewRFF(kern, noise, m, opt.rffSeed(h))
	if err != nil {
		// Kernel without a spectral sampler: stay exact. Slow at scale,
		// but correct.
		g := gp.New(kern, noise)
		if err := g.Fit(xs, rs); err != nil {
			return nil
		}
		return g
	}
	for i := range xs {
		if err := r.Observe(xs[i], rs[i]); err != nil {
			return nil
		}
	}
	return r
}

// rffSeed derives a deterministic feature-draw seed from the optimizer
// seed and the hyper sample, so distinct ensemble members get distinct
// (but reproducible) feature maps.
func (opt *Optimizer) rffSeed(h []float64) int64 {
	s := opt.Opts.Seed*1000003 + 17
	for _, v := range h {
		s = s*31 + int64(math.Float64bits(v)&0xffffffff)
	}
	return s
}

// syncModels brings the cached ensemble to the canonical conditioning
// state — all real observations followed by exactly the given
// fantasies — using incremental factor updates only: retract stale
// fantasies in reverse (trailing downdates), extend with observations
// that arrived since the last ask, then extend with the new fantasies.
// Any failure falls back to a cold rebuild of the same state.
func (opt *Optimizer) syncModels(fant []fantasyPoint) error {
	c := &opt.cache
	if len(c.models) == 0 {
		return opt.rebuildModels(fant)
	}
	for i := len(c.fant) - 1; i >= 0; i-- {
		f := c.fant[i]
		for _, m := range c.models {
			if err := m.Retract(f.u, f.r); err != nil {
				return opt.rebuildModels(fant)
			}
		}
		c.fant = c.fant[:i]
	}
	m0 := opt.obsPrior()
	for i := c.nObs; i < len(opt.obs); i++ {
		o := opt.obs[i]
		r := (o.Y-c.my)/c.sy - m0[i]
		for _, m := range c.models {
			if err := m.Observe(o.U, r); err != nil {
				return opt.rebuildModels(fant)
			}
		}
		c.nObs = i + 1
	}
	for _, f := range fant {
		for _, m := range c.models {
			if err := m.Observe(f.u, f.r); err != nil {
				return opt.rebuildModels(fant)
			}
		}
		c.fant = append(c.fant, f)
	}
	return nil
}
