package bo

import (
	"math"
	"sync/atomic"
	"testing"

	"stormtune/internal/gp"
)

// TestPriorMeanResiduals pins the transfer prior's effect on the
// ensemble: when the standardized data is exactly the prior, the
// surrogate conditions on ~zero residuals, learns a ~zero constant,
// reverts to the prior far from the data and interpolates at it.
func TestPriorMeanResiduals(t *testing.T) {
	// Prior values -c, 0, c at the three points: mean 0 and standard
	// deviation 1, so y-standardization leaves the data on the prior.
	c := math.Sqrt(1.5)
	prior := func(u []float64) float64 { return c * (2*u[0] - 1) }
	x := [][]float64{{0, 0.1}, {0.5, 0.6}, {1, 0.3}}
	opt := NewOptimizer(MustSpace(
		Dim{Name: "a", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "b", Kind: Float, Min: 0, Max: 1},
	), Options{
		Seed: 2, Knobs: Knobs{Candidates: 40}, InitialDesign: len(x), PriorMean: prior,
		// One fixed hyper sample: unit amplitude, length 0.3, noise 1e-6.
		InitHypers: &HyperState{Hypers: [][]float64{{0, math.Log(0.3), math.Log(0.3), math.Log(1e-6)}}},
	})
	for _, u := range x {
		opt.Observe(u, prior(u))
	}
	opt.Suggest()
	if len(opt.cache.models) != 1 {
		t.Fatalf("ensemble has %d models, want 1", len(opt.cache.models))
	}
	g := opt.cache.models[0]
	if math.Abs(g.Mean) > 1e-9 {
		t.Fatalf("residual mean should be ~0, got %v", g.Mean)
	}
	var s gp.Scratch
	// Far from every observation the posterior reverts to the prior.
	far := []float64{0.95, 0.95}
	mu, _ := g.PredictInto(&s, far, prior(far))
	if math.Abs(mu-prior(far)) > 0.2 {
		t.Fatalf("far prediction %v should track prior %v", mu, prior(far))
	}
	// At a data point it interpolates the standardized objective.
	_, ys, _ := opt.trainingSet()
	want := (ys[0] - opt.cache.my) / opt.cache.sy
	if m, _ := g.PredictInto(&s, x[0], prior(x[0])); math.Abs(m-want) > 1e-3 {
		t.Fatalf("interpolation off: %v vs %v", m, want)
	}
	if lml := g.LogMarginalLikelihood(); math.IsInf(lml, -1) || math.IsNaN(lml) {
		t.Fatalf("bad log marginal likelihood %v", lml)
	}
	// A clone conditions on the same residuals.
	if cmu, _ := g.Clone().PredictInto(&s, far, prior(far)); math.Abs(cmu-mu) > 1e-9 {
		t.Fatalf("clone prediction differs: %v vs %v", cmu, mu)
	}
}

// countingAcq wraps an acquisition and counts Score calls; the scorer
// calls it once per model per scored point, from several goroutines.
type countingAcq struct {
	inner Acquisition
	n     atomic.Int64
}

func (a *countingAcq) Score(mu, sigma, best float64) float64 {
	a.n.Add(1)
	return a.inner.Score(mu, sigma, best)
}

func (a *countingAcq) Name() string { return a.inner.Name() }

// TestPriorMeanEvaluatedOncePerPoint pins where the transfer prior is
// evaluated: once per observation, once per constant-liar fantasy each
// ask conditions, and once per scored candidate or local-search move —
// never once per hyper sample, and never inside slice sampling. The session crosses refit epochs
// (every new observation below n=16 starts one), a barrier batch, and
// an async-style ask with one batch point still pending.
func TestPriorMeanEvaluatedOncePerPoint(t *testing.T) {
	setGOMAXPROCS(t, 2) // the scan's chunks and the refit run concurrently
	var calls atomic.Int64
	acq := &countingAcq{inner: EI{}}
	const hypers = 3
	opt := NewOptimizer(cacheTestSpace(), Options{
		Seed: 13, Knobs: Knobs{Candidates: 61, HyperSamples: hypers, LocalSearchIters: 3}, Acq: acq,
		PriorMean: func(u []float64) float64 {
			calls.Add(1)
			return testPriorMean(u)
		},
	})
	scored, fantasies := int64(0), int64(0)
	ask := func(q int) [][]float64 {
		before, pending := acq.n.Load(), len(opt.pending)
		us := opt.SuggestBatch(q)
		if d := acq.n.Load() - before; d > 0 {
			if len(opt.cache.models) != hypers {
				t.Fatalf("ensemble has %d models, want %d", len(opt.cache.models), hypers)
			}
			scored += d / hypers
			// The j-th ask of the batch conditions every point still
			// pending before it as a fantasy.
			for j := 0; j < q; j++ {
				fantasies += int64(pending + j)
			}
		}
		return us
	}
	tell := func(u []float64) { opt.Observe(u, cacheObjective(u)) }

	for i := 0; i < 8; i++ {
		tell(ask(1)[0])
	}
	for _, u := range ask(3) { // fantasies: 0, then 1, then 2
		tell(u)
	}
	async := ask(2) // fantasy: async[0]
	tell(async[1])
	u := ask(1)[0] // fantasy: async[0] again
	tell(async[0])
	tell(u)
	ask(1) // condition every observation

	if scored == 0 || fantasies != 5 {
		t.Fatalf("%d candidates scored and %d fantasies conditioned, want some and 5", scored, fantasies)
	}
	if got, want := calls.Load(), int64(opt.N())+fantasies+scored; got != want {
		t.Fatalf("PriorMean called %d times, want %d (%d observations + %d fantasies + %d scored points)",
			got, want, opt.N(), fantasies, scored)
	}
}
