package bo

import (
	"reflect"
	"testing"
)

func warmSpace(d int) *Space {
	dims := make([]Dim, d)
	for i := range dims {
		dims[i] = Dim{Name: string(rune('a' + i)), Kind: Float, Min: 0, Max: 1}
	}
	return &Space{Dims: dims}
}

func TestWarmStartsReplaceLHSBudget(t *testing.T) {
	warm := [][]float64{{0.25, 0.75}, {0.9, 0.1}}
	opt := NewOptimizer(warmSpace(2), Options{InitialDesign: 4, Seed: 7, WarmStarts: warm})
	u1, u2 := opt.Suggest(), opt.Suggest()
	if !reflect.DeepEqual(u1, warm[0]) || !reflect.DeepEqual(u2, warm[1]) {
		t.Fatalf("warm points must be issued first: got %v, %v", u1, u2)
	}
	u3, u4 := opt.Suggest(), opt.Suggest()
	for _, u := range [][]float64{u3, u4} {
		if reflect.DeepEqual(u, warm[0]) || reflect.DeepEqual(u, warm[1]) {
			t.Fatalf("LHS remainder should differ from warm points: %v", u)
		}
	}

	// Determinism: same seed and warm set replays the same sequence.
	opt2 := NewOptimizer(warmSpace(2), Options{InitialDesign: 4, Seed: 7, WarmStarts: warm})
	for i, want := range [][]float64{u1, u2, u3, u4} {
		if got := opt2.Suggest(); !reflect.DeepEqual(got, want) {
			t.Fatalf("suggestion %d not deterministic: %v vs %v", i, got, want)
		}
	}
}

func TestWarmStartsCappedAndCleaned(t *testing.T) {
	warm := [][]float64{
		{2, -1}, // out of cube: clamped
		{0.5},   // wrong dimension: dropped
		{0.1, 0.2},
		{0.3, 0.4},
		{0.5, 0.6},
	}
	opt := NewOptimizer(warmSpace(2), Options{InitialDesign: 3, Seed: 1, WarmStarts: warm})
	got := [][]float64{opt.Suggest(), opt.Suggest(), opt.Suggest()}
	want := [][]float64{{1, 0}, {0.1, 0.2}, {0.3, 0.4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm design = %v, want %v", got, want)
	}
}

func TestSetSharedSeedsReRanksUnissuedDesign(t *testing.T) {
	opt := NewOptimizer(warmSpace(2), Options{InitialDesign: 4, Seed: 3})
	first := opt.Suggest()
	opt.Observe(first, 1)
	seed := []float64{0.42, 0.58}
	opt.SetSharedSeeds([][]float64{first, seed, {0.5}})
	if got := opt.Suggest(); !reflect.DeepEqual(got, seed) {
		t.Fatalf("fresh shared seed should take the next slot, got %v", got)
	}
	if len(opt.sharedSeeds) != 2 {
		t.Fatalf("wrong-dimension seed should be dropped, kept %d", len(opt.sharedSeeds))
	}
}

func TestSetSharedSeedsBeforeDesignDrawn(t *testing.T) {
	opt := NewOptimizer(warmSpace(2), Options{InitialDesign: 3, Seed: 3, WarmStarts: [][]float64{{0.9, 0.9}}})
	seed := []float64{0.2, 0.8}
	opt.SetSharedSeeds([][]float64{seed})
	if got := opt.Suggest(); !reflect.DeepEqual(got, seed) {
		t.Fatalf("seed pushed before the draw should lead the design, got %v", got)
	}
	if got := opt.Suggest(); !reflect.DeepEqual(got, []float64{0.9, 0.9}) {
		t.Fatalf("original warm point should follow, got %v", got)
	}
}

// TestPriorMeanPullsSuggestions pins the transfer prior's effect: with
// identical local evidence, a prior that expects high objective near
// one corner pulls the first model-based suggestion toward it.
func TestPriorMeanPullsSuggestions(t *testing.T) {
	run := func(prior func([]float64) float64) []float64 {
		opt := NewOptimizer(warmSpace(2), Options{
			InitialDesign: 3, Seed: 11, Knobs: Knobs{HyperSamples: 1, Candidates: 200, LocalSearchIters: 4},
			PriorMean: prior,
		})
		for i := 0; i < 3; i++ {
			u := opt.Suggest()
			opt.Observe(u, 1) // flat local evidence
		}
		return opt.Suggest()
	}
	// Amplitude comparable to the (standardized) local evidence, as a
	// real archived prior is after core's similarity down-weighting.
	peak := []float64{0.95, 0.95}
	withPrior := run(func(u []float64) float64 {
		d := (u[0]-peak[0])*(u[0]-peak[0]) + (u[1]-peak[1])*(u[1]-peak[1])
		return 1 + 0.8*(1-2*d)
	})
	cold := run(nil)
	dist := func(u []float64) float64 {
		return (u[0]-peak[0])*(u[0]-peak[0]) + (u[1]-peak[1])*(u[1]-peak[1])
	}
	if dist(withPrior) >= dist(cold) {
		t.Fatalf("prior should pull the suggestion toward its peak: with=%v (d=%.3f) cold=%v (d=%.3f)",
			withPrior, dist(withPrior), cold, dist(cold))
	}
}
