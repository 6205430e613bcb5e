package bo

import (
	"math"
	"testing"
)

func trustSpace2() *Space {
	return MustSpace(
		Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
}

func TestTrustRegionWidensOnlyAfterConsecutiveImprovements(t *testing.T) {
	r0 := 0.1
	tr := &TrustRegion{Center: []float64{0.5, 0.5}, Radius: r0}
	tr.Baseline(10)

	// One improvement: recenter, streak at 1, radius unchanged.
	tr.Observe([]float64{0.55, 0.5}, 11)
	if tr.Radius != r0 {
		t.Fatalf("radius widened after a single improvement: %v", tr.Radius)
	}
	if tr.Center[0] != 0.55 {
		t.Fatalf("region did not recenter on the improvement: %v", tr.Center)
	}

	// Second consecutive improvement (trustGrowAfter = 2): widen.
	tr.Observe([]float64{0.6, 0.5}, 12)
	wide := r0 * 1.6
	if tr.Radius != wide {
		t.Fatalf("radius after 2 consecutive improvements = %v, want %v", tr.Radius, wide)
	}

	// A regression halves the radius and resets the streak; the next
	// single improvement must not widen.
	tr.Observe([]float64{0.7, 0.5}, 5)
	if tr.Radius != wide/2 {
		t.Fatalf("radius after regression = %v, want %v", tr.Radius, wide/2)
	}
	if tr.Center[0] != 0.6 {
		t.Fatal("regression must not move the center")
	}
	tr.Observe([]float64{0.62, 0.5}, 13)
	if tr.Radius != wide/2 {
		t.Fatalf("streak survived a regression: radius %v", tr.Radius)
	}
}

func TestTrustRegionRadiusBounds(t *testing.T) {
	tr := &TrustRegion{Center: []float64{0.5}, Radius: 0.4, RadiusMin: 0.1, RadiusMax: 0.45}
	tr.Baseline(1)
	tr.Observe([]float64{0.52}, 2)
	tr.Observe([]float64{0.54}, 3) // 0.4 × 1.6 = 0.64
	if tr.Radius != 0.45 {
		t.Fatalf("radius not capped at RadiusMax: %v", tr.Radius)
	}
	for i, want := range []float64{0.225, 0.1125, 0.1} { // the last halving, 0.05625, floored
		tr.Observe([]float64{0.9}, 0)
		if tr.Radius != want {
			t.Fatalf("radius after %d regressions = %v, want %v (RadiusMin 0.1)", i+1, tr.Radius, want)
		}
	}
}

func TestTrustRegionClampAndContains(t *testing.T) {
	tr := &TrustRegion{Center: []float64{0.1, 0.9}, Radius: 0.2}
	c := tr.Clamp([]float64{0.9, 0.05})
	want := []float64{0.3, 0.7}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-12 {
			t.Fatalf("Clamp = %v, want %v", c, want)
		}
	}
	if !tr.Contains(c) {
		t.Fatal("clamped point must be inside the region")
	}
	if tr.Contains([]float64{0.9, 0.9}) {
		t.Fatal("far point reported inside the region")
	}
	// The box is intersected with the unit cube.
	edge := tr.Clamp([]float64{-1, 2})
	if edge[0] != 0 || edge[1] != 1 {
		t.Fatalf("Clamp left the unit cube: %v", edge)
	}
}

func TestOptimizerTrustConfinesEverySuggestion(t *testing.T) {
	space := trustSpace2()
	center := []float64{0.45, 0.55}
	tr := &TrustRegion{Center: append([]float64(nil), center...), Radius: 0.12}
	tr.Baseline(5)
	opt := NewOptimizer(space, Options{
		Seed: 3, Knobs: Knobs{Candidates: 120, HyperSamples: 1, LocalSearchIters: 4},
		InitialDesign: 1, Trust: tr,
	})

	// First suggestion with no data is the center itself.
	first := opt.Suggest()
	if !sameVec(first, center) {
		t.Fatalf("first conservative suggestion = %v, want the center %v", first, center)
	}
	opt.Observe(first, 5)

	// Every subsequent suggestion stays inside the live region box —
	// the configured trust bound on per-step change.
	for i := 0; i < 10; i++ {
		u := opt.Suggest()
		if !tr.Contains(u) {
			t.Fatalf("suggestion %d = %v escaped the trust region (center %v radius %v)",
				i, u, tr.Center, tr.Radius)
		}
		// Feed alternating improvement/regression so the region both
		// widens and shrinks during the walk.
		y := 5 + float64(i%2)
		opt.Observe(u, y)
	}
}

func TestOptimizerTrustBatchStaysConfined(t *testing.T) {
	space := trustSpace2()
	tr := &TrustRegion{Center: []float64{0.5, 0.5}, Radius: 0.15}
	tr.Baseline(1)
	opt := NewOptimizer(space, Options{
		Seed: 7, Knobs: Knobs{Candidates: 80, HyperSamples: 1, LocalSearchIters: 2},
		InitialDesign: 1, Trust: tr,
	})
	for _, u := range opt.SuggestBatch(4) {
		if !tr.Contains(u) {
			t.Fatalf("batch suggestion %v escaped the trust region", u)
		}
	}
}
