package bo

import (
	"errors"
	"runtime"

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
// standardized lie minus the prior mean there), fixed at append time.
// Retraction needs only the point: it drops the trailing row.
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

	// conditioning state
	models []*gp.GP
	nObs   int // real observations conditioned into models
	fant   []fantasyPoint
}

// needRefit reports whether the next suggestion must start a new refit
// epoch. The schedule is a pure function of the observation count (no
// clock, no RNG): refit on every new observation while the history is
// tiny, then only after ~25% growth — that amortization is what turns
// slice sampling from a per-ask cost into a per-epoch one.
func (opt *Optimizer) needRefit() bool {
	c := &opt.cache
	if len(c.hypers) == 0 || c.fitN == 0 {
		return true
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

	var hypers [][]float64
	if c.fitN == 0 && opt.Opts.InitHypers != nil {
		hypers = opt.validInitHypers(d)
	}
	if hypers == nil {
		g := newMember(d)
		if err := g.Fit(xs, residuals(ys, m0, my, sy)); err != nil {
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
	// Epoch state changed: every cached factor is invalid.
	c.models = nil
	c.nObs = 0
	c.fant = nil
	return nil
}

// validInitHypers filters Options.InitHypers down to vectors matching
// an ensemble member's hyperparameter count, returning nil when nothing
// survives (the epoch then samples normally).
func (opt *Optimizer) validInitHypers(d int) [][]float64 {
	want := len(newMember(d).HyperVector())
	var out [][]float64
	for _, h := range opt.Opts.InitHypers.Hypers {
		if len(h) == want {
			out = append(out, append([]float64(nil), h...))
		}
	}
	return out
}

// newMember builds one unfitted ensemble member: an exact GP with an
// ARD Matérn-5/2 kernel of initial length scale 0.3 in every dimension
// and initial noise variance 1e-3 (slice sampling adapts both).
func newMember(d int) *gp.GP {
	return gp.New(gp.NewMatern52(d, 0.3), 1e-3)
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

	models := make([]*gp.GP, len(c.hypers))
	parallelFor(runtime.GOMAXPROCS(0), len(c.hypers), func(k int) {
		g := newMember(d)
		if err := g.SetHypersAndRefit(c.hypers[k]); err != nil {
			return
		}
		if err := g.Fit(axs, ars); err != nil {
			return
		}
		models[k] = g
	})
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
			if err := m.Retract(f.u); err != nil {
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
