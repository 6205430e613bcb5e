package bo

import (
	"math"
	"testing"
)

func cacheTestSpace() *Space {
	return MustSpace(
		Dim{Name: "a", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "b", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "c", Kind: Float, Min: 0, Max: 1},
	)
}

func cacheObjective(u []float64) float64 {
	s := 0.0
	for i, v := range u {
		d := v - 0.3*float64(i+1)
		s -= d * d
	}
	return s
}

// testPriorMean is a smooth, non-constant prior mean in standardized
// units, for the parity tests that run with a transfer prior.
func testPriorMean(u []float64) float64 {
	return 0.8*math.Sin(3*u[0]) - 0.5*u[1]*u[2] + 0.1
}

// denseSuggest is the rebuild-every-ask oracle: dropping the cached
// ensemble sends the ask through rebuildModels, which conditions dense
// GP state from scratch on every observation and fantasy, and dropping
// the cached prior means re-evaluates PriorMean at every one of them.
func denseSuggest(opt *Optimizer) []float64 {
	opt.cache.models = nil
	opt.obsM0 = nil
	return opt.suggestOne((*Optimizer).maximize)
}

// TestCachedMatchesDenseRebuild is the pinned parity test for the
// incremental GP hot path: below the approximation threshold, an
// optimizer extending cached factors across asks proposes bit-identical
// points to one rebuilding dense GP state from scratch every ask, both
// through single suggests and constant-liar batches, with and without
// a transfer prior mean.
func TestCachedMatchesDenseRebuild(t *testing.T) {
	for _, prior := range []func([]float64) float64{nil, testPriorMean} {
		mk := func() *Optimizer {
			return NewOptimizer(cacheTestSpace(), Options{
				Seed: 11, Candidates: 120, HyperSamples: 2, LocalSearchIters: 2,
				PriorMean: prior,
			})
		}
		checkCachedMatchesDense(t, mk(), mk())
	}
}

func checkCachedMatchesDense(t *testing.T, inc, ref *Optimizer) {
	t.Helper()
	for step := 0; step < 14; step++ {
		if step%4 == 3 {
			// Batch ask: fantasies extend/retract the cached factors.
			bi := inc.SuggestBatch(3)
			var br [][]float64
			for k := 0; k < 3; k++ {
				br = append(br, denseSuggest(ref))
			}
			if len(bi) != len(br) {
				t.Fatalf("step %d: batch sizes %d vs %d", step, len(bi), len(br))
			}
			for k := range bi {
				for j := range bi[k] {
					if bi[k][j] != br[k][j] {
						t.Fatalf("step %d batch %d dim %d: cached %v vs dense %v",
							step, k, j, bi[k], br[k])
					}
				}
				y := cacheObjective(bi[k])
				inc.Observe(bi[k], y)
				ref.Observe(br[k], y)
			}
			continue
		}
		ui, ur := inc.Suggest(), denseSuggest(ref)
		for j := range ui {
			if ui[j] != ur[j] {
				t.Fatalf("step %d dim %d: cached %v vs dense %v", step, j, ui, ur)
			}
		}
		y := cacheObjective(ui)
		inc.Observe(ui, y)
		ref.Observe(ur, y)
	}
	if inc.HyperState() == nil {
		t.Fatal("no hyper state after suggests")
	}
}

// TestInitHypersWarmStart checks a retune-style optimizer seeded with an
// incumbent's HyperState uses it verbatim for its first epoch (no cold
// slice sampling) and still proposes deterministically.
func TestInitHypersWarmStart(t *testing.T) {
	donor := NewOptimizer(cacheTestSpace(), Options{
		Seed: 3, Candidates: 100, HyperSamples: 2, LocalSearchIters: 2,
	})
	for i := 0; i < 8; i++ {
		u := donor.Suggest()
		donor.Observe(u, cacheObjective(u))
	}
	hs := donor.HyperState()
	if hs == nil || len(hs.Hypers) == 0 {
		t.Fatal("donor has no hyper state")
	}

	mk := func() *Optimizer {
		o := NewOptimizer(cacheTestSpace(), Options{
			Seed: 5, Candidates: 100, HyperSamples: 2, LocalSearchIters: 2,
			InitialDesign: 1, InitHypers: hs,
		})
		o.Observe([]float64{0.3, 0.6, 0.9}, cacheObjective([]float64{0.3, 0.6, 0.9}))
		return o
	}
	a, b := mk(), mk()
	ua, ub := a.Suggest(), b.Suggest()
	for j := range ua {
		if ua[j] != ub[j] {
			t.Fatalf("warm-started suggest not deterministic: %v vs %v", ua, ub)
		}
	}
	got := a.HyperState()
	if got == nil || len(got.Hypers) != len(hs.Hypers) {
		t.Fatal("warm-started optimizer dropped the injected hyper state")
	}
	for i := range got.Hypers {
		for j := range got.Hypers[i] {
			if got.Hypers[i][j] != hs.Hypers[i][j] {
				t.Fatalf("hyper sample %d differs from injected state", i)
			}
		}
	}

	// Mismatched hyper dimensions must be ignored, not crash.
	bad := NewOptimizer(cacheTestSpace(), Options{
		Seed: 5, Candidates: 80, HyperSamples: 1, InitialDesign: 1,
		InitHypers: &HyperState{Hypers: [][]float64{{0.1, 0.2}}},
	})
	bad.Observe([]float64{0.5, 0.5, 0.5}, 1)
	if u := bad.Suggest(); len(u) != 3 {
		t.Fatalf("suggest with invalid InitHypers returned %v", u)
	}
}

// TestApproxSwitchover drives an optimizer past a small ApproxAfter
// threshold and checks the approximate regime proposes valid,
// deterministic points and freezes further hyper refits.
func TestApproxSwitchover(t *testing.T) {
	mk := func() *Optimizer {
		return NewOptimizer(cacheTestSpace(), Options{
			Seed: 7, Candidates: 80, HyperSamples: 2, LocalSearchIters: 2,
			ApproxAfter: 20, RFFFeatures: 64, InitialDesign: 3,
		})
	}
	a, b := mk(), mk()
	for i := 0; i < 30; i++ {
		ua, ub := a.Suggest(), b.Suggest()
		for j := range ua {
			if ua[j] != ub[j] {
				t.Fatalf("step %d: approx path not deterministic: %v vs %v", i, ua, ub)
			}
			if ua[j] < 0 || ua[j] > 1 || math.IsNaN(ua[j]) {
				t.Fatalf("step %d: proposal out of cube: %v", i, ua)
			}
		}
		y := cacheObjective(ua)
		a.Observe(ua, y)
		b.Observe(ub, y)
	}
	if !a.cache.approx {
		t.Fatal("optimizer never entered the approximate regime")
	}
	fitN := a.cache.fitN
	for i := 0; i < 5; i++ {
		u := a.Suggest()
		a.Observe(u, cacheObjective(u))
	}
	if a.cache.fitN != fitN {
		t.Fatal("approximate regime refit hypers; they must stay frozen")
	}
}

// TestWindowedSessionsShareEpochHypers checks the MaxGPPoints sliding-
// window path still amortizes slice sampling across asks: the epoch
// hyper samples survive between asks even though models rebuild, and an
// ask without a new observation starts no refit epoch.
func TestWindowedSessionsShareEpochHypers(t *testing.T) {
	opt := NewOptimizer(cacheTestSpace(), Options{
		Seed: 9, Candidates: 80, HyperSamples: 2, LocalSearchIters: 2,
		MaxGPPoints: 10, InitialDesign: 3,
	})
	for i := 0; i < 25; i++ {
		u := opt.Suggest()
		if len(u) != 3 {
			t.Fatalf("step %d: bad proposal %v", i, u)
		}
		opt.Observe(u, cacheObjective(u))
	}
	c := &opt.cache
	if len(c.hypers) == 0 {
		t.Fatal("windowed session has no epoch hypers")
	}
	// Past n=16 epochs start only after ~25% growth, so the last refit
	// happened at fewer than 25 observations.
	if c.fitN < 16 || c.fitN >= 25 {
		t.Fatalf("implausible fitN %d", c.fitN)
	}
	// Between scheduled refits, an extra ask must not consume hyper
	// samples again (fitN unchanged when n is unchanged).
	fitN := c.fitN
	_ = opt.Suggest()
	if opt.cache.fitN != fitN {
		t.Fatal("ask without new observations triggered a refit")
	}
}
