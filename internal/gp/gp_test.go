package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelBasics(t *testing.T) {
	k := NewMatern52(3, 0.5)
	a := []float64{0.1, 0.2, 0.3}
	// k(x,x) = amplitude.
	if math.Abs(k.Eval(a, a)-1) > 1e-12 {
		t.Fatalf("k(x,x) = %v, want 1", k.Eval(a, a))
	}
	// Symmetry.
	b := []float64{0.9, 0.8, 0.7}
	if math.Abs(k.Eval(a, b)-k.Eval(b, a)) > 1e-15 {
		t.Fatalf("kernel not symmetric")
	}
	// Decay with distance.
	c := []float64{0.15, 0.2, 0.3}
	if k.Eval(a, c) <= k.Eval(a, b) {
		t.Fatalf("kernel should decay with distance: near=%v far=%v", k.Eval(a, c), k.Eval(a, b))
	}
	if k.Dim() != 3 {
		t.Fatalf("dim = %d", k.Dim())
	}
}

func TestKernelHypersRoundTrip(t *testing.T) {
	k := NewMatern52(2, 0.4)
	h := k.Hypers()
	if len(h) != 3 {
		t.Fatalf("hypers len = %d, want 3", len(h))
	}
	h2 := append([]float64(nil), h...)
	h2[1] = math.Log(0.9)
	k.SetHypers(h2)
	got := k.Hypers()
	if math.Abs(got[1]-math.Log(0.9)) > 1e-12 {
		t.Fatalf("SetHypers did not stick: %v", got)
	}
}

func TestKernelCloneIndependence(t *testing.T) {
	k := NewMatern52(2, 0.4)
	c := k.Clone()
	c.Lengths[0] = 99
	if k.Lengths[0] == 99 {
		t.Fatal("Clone aliases parent")
	}
}

func TestGPInterpolatesWithLowNoise(t *testing.T) {
	// With tiny noise the posterior mean must pass near the data.
	x := [][]float64{{0.0}, {0.25}, {0.5}, {0.75}, {1.0}}
	y := []float64{0, 1, 0, -1, 0}
	g := New(NewMatern52(1, 0.3), 1e-8)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		mu, s2 := g.Predict(xi)
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Fatalf("mu(%v) = %v, want %v", xi, mu, y[i])
		}
		if s2 > 1e-3 {
			t.Fatalf("variance at datum should be tiny, got %v", s2)
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0.5}}
	y := []float64{1}
	g := New(NewMatern52(1, 0.1), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	_, atData := g.Predict([]float64{0.5})
	_, far := g.Predict([]float64{0.95})
	if far <= atData {
		t.Fatalf("variance should grow away from data: %v vs %v", atData, far)
	}
}

func TestGPRevertsToMeanFarAway(t *testing.T) {
	x := [][]float64{{0.1}, {0.2}}
	y := []float64{10, 12}
	g := New(NewMatern52(1, 0.05), 1e-6)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.99})
	if math.Abs(mu-11) > 0.5 {
		t.Fatalf("far prediction should revert to mean 11, got %v", mu)
	}
}

func TestGPFitErrors(t *testing.T) {
	g := New(NewMatern52(1, 0.3), 1e-6)
	if err := g.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty fit")
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestGPPredictBeforeFit(t *testing.T) {
	g := New(NewMatern52(1, 0.3), 1e-6)
	mu, s2 := g.Predict([]float64{0.3})
	if mu != 0 || s2 <= 0 {
		t.Fatalf("prior predict = (%v, %v)", mu, s2)
	}
}

func TestLogMarginalLikelihoodPrefersTruth(t *testing.T) {
	// Data generated from a smooth function: a reasonable length scale
	// should beat an absurdly short one.
	rng := rand.New(rand.NewSource(42))
	var x [][]float64
	var y []float64
	for i := 0; i < 25; i++ {
		xi := rng.Float64()
		x = append(x, []float64{xi})
		y = append(y, math.Sin(3*xi)+0.05*rng.NormFloat64())
	}
	good := New(NewMatern52(1, 0.4), 0.01)
	if err := good.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	bad := New(NewMatern52(1, 1e-4), 0.01)
	if err := bad.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if good.LogMarginalLikelihood() <= bad.LogMarginalLikelihood() {
		t.Fatalf("LML should prefer sane length scale: good=%v bad=%v",
			good.LogMarginalLikelihood(), bad.LogMarginalLikelihood())
	}
}

func TestSliceSampleHypersImprovesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []float64
	for i := 0; i < 20; i++ {
		xi := float64(i) / 19
		x = append(x, []float64{xi})
		y = append(y, math.Sin(4*xi))
	}
	g := New(NewMatern52(1, 5.0), 0.5) // deliberately bad start
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	before := g.LogMarginalLikelihood()
	samples := g.SliceSampleHypers(rng, 10, 3)
	if len(samples) != 10 {
		t.Fatalf("got %d samples", len(samples))
	}
	after := g.LogMarginalLikelihood()
	if after < before-1 {
		t.Fatalf("sampling should not end far below start: before=%v after=%v", before, after)
	}
	// Each sample must have the right length: kernel hypers + noise.
	if len(samples[0]) != len(g.Kern.Hypers())+1 {
		t.Fatalf("sample length = %d", len(samples[0]))
	}
}

func TestFitMAPRecoversSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var x [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		xi := float64(i) / 29
		x = append(x, []float64{xi})
		y = append(y, 2*xi)
	}
	g := New(NewMatern52(1, 0.001), 1.0)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	g.FitMAP(rng, 8)
	// After MAP fitting, predictions should roughly track the line.
	mu, _ := g.Predict([]float64{0.5})
	if math.Abs(mu-1.0) > 0.3 {
		t.Fatalf("MAP-fit prediction at 0.5 = %v, want ≈1", mu)
	}
}

func TestGPClone(t *testing.T) {
	x := [][]float64{{0.1}, {0.5}, {0.9}}
	y := []float64{1, 2, 3}
	g := New(NewMatern52(1, 0.3), 1e-4)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	muG, _ := g.Predict([]float64{0.4})
	muC, _ := c.Predict([]float64{0.4})
	if math.Abs(muG-muC) > 1e-9 {
		t.Fatalf("clone predicts differently: %v vs %v", muG, muC)
	}
	// Mutating the clone's kernel must not affect the parent.
	c.Kern.Lengths[0] = 100
	muG2, _ := g.Predict([]float64{0.4})
	if muG2 != muG {
		t.Fatalf("clone mutation leaked into parent")
	}
}

// Property: posterior variance is never negative and never exceeds the
// prior variance at any query point (for noise-free interpolation this
// is the standard GP contraction property).
func TestQuickGPVarianceBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64()}
			y[i] = rng.NormFloat64()
		}
		g := New(NewMatern52(2, 0.3), 1e-4)
		if err := g.Fit(x, y); err != nil {
			return true // degenerate draw; skip
		}
		prior := g.Kern.Eval([]float64{0, 0}, []float64{0, 0})
		for i := 0; i < 5; i++ {
			q := []float64{rng.Float64(), rng.Float64()}
			_, s2 := g.Predict(q)
			if s2 < 0 || s2 > prior*(1+1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
