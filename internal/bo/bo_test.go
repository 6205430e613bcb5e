package bo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(Dim{Name: "x", Kind: Float, Min: 1, Max: 0}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if _, err := NewSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1, Log: true}); err == nil {
		t.Fatal("log scale with min=0 accepted")
	}
	if _, err := NewSpace(Dim{Name: "x", Kind: Int, Min: 0.5, Max: 3}); err == nil {
		t.Fatal("fractional int bounds accepted")
	}
	if _, err := NewSpace(Dim{Name: "x", Kind: Enum, Values: []string{"only"}}); err == nil {
		t.Fatal("single-value enum accepted")
	}
	if _, err := NewSpace(
		Dim{Name: "a", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "b", Kind: Int, Min: 1, Max: 10},
		Dim{Name: "c", Kind: Enum, Values: []string{"x", "y"}},
	); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
}

func TestDecodeBounds(t *testing.T) {
	s := MustSpace(
		Dim{Name: "f", Kind: Float, Min: -2, Max: 2},
		Dim{Name: "i", Kind: Int, Min: 1, Max: 64},
		Dim{Name: "e", Kind: Enum, Values: []string{"a", "b", "c"}},
	)
	lo := s.Decode([]float64{0, 0, 0})
	hi := s.Decode([]float64{1, 1, 1})
	if lo[0] != -2 || hi[0] != 2 {
		t.Fatalf("float decode wrong: %v %v", lo[0], hi[0])
	}
	if lo[1] != 1 || hi[1] != 64 {
		t.Fatalf("int decode wrong: %v %v", lo[1], hi[1])
	}
	if lo[2] != 0 || hi[2] != 2 {
		t.Fatalf("enum decode wrong: %v %v", lo[2], hi[2])
	}
	if s.EnumValue(2, hi[2]) != "c" {
		t.Fatalf("enum label wrong")
	}
	// Out-of-range unit coordinates are clamped.
	v := s.Decode([]float64{-0.5, 1.5, 2})
	if v[0] != -2 || v[1] != 64 || v[2] != 2 {
		t.Fatalf("clamping failed: %v", v)
	}
}

func TestLogScaleDecode(t *testing.T) {
	s := MustSpace(Dim{Name: "bs", Kind: Int, Min: 100, Max: 1000000, Log: true})
	mid := s.Decode([]float64{0.5})[0]
	// Geometric midpoint of 1e2..1e6 is 1e4.
	if math.Abs(mid-10000) > 100 {
		t.Fatalf("log midpoint = %v, want ≈10000", mid)
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	s := MustSpace(
		Dim{Name: "f", Kind: Float, Min: -3, Max: 7},
		Dim{Name: "i", Kind: Int, Min: 0, Max: 100},
		Dim{Name: "l", Kind: Float, Min: 0.001, Max: 1000, Log: true},
	)
	f := func(a, b, c float64) bool {
		u := []float64{frac(a), frac(b), frac(c)}
		vals := s.Decode(u)
		u2 := s.Encode(vals)
		vals2 := s.Decode(u2)
		for i := range vals {
			tol := 1e-9 * math.Max(1, math.Abs(vals[i]))
			if math.Abs(vals[i]-vals2[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func frac(x float64) float64 {
	v := math.Abs(math.Mod(x, 1))
	if math.IsNaN(v) {
		return 0.5
	}
	return v
}

func TestEIProperties(t *testing.T) {
	ei := EI{}
	// Zero sigma, mu below best: no improvement possible.
	if ei.Score(1, 0, 2) != 0 {
		t.Fatal("EI must be 0 when mu<best and sigma=0")
	}
	// Zero sigma, mu above best: deterministic improvement.
	if math.Abs(ei.Score(3, 0, 2)-1) > 1e-12 {
		t.Fatal("EI must equal mu-best when sigma=0")
	}
	// EI grows with sigma at fixed mu=best.
	if !(ei.Score(0, 2, 0) > ei.Score(0, 1, 0)) {
		t.Fatal("EI should grow with sigma")
	}
	// EI grows with mu at fixed sigma.
	if !(ei.Score(1, 1, 0) > ei.Score(0, 1, 0)) {
		t.Fatal("EI should grow with mu")
	}
	// EI is always non-negative.
	if ei.Score(-10, 0.1, 0) < 0 {
		t.Fatal("EI must be non-negative")
	}
}

func TestPIAndUCB(t *testing.T) {
	pi := PI{}
	if math.Abs(pi.Score(0, 1, 0)-0.5) > 1e-12 {
		t.Fatalf("PI(mu=best) = %v, want 0.5", pi.Score(0, 1, 0))
	}
	if pi.Score(5, 0, 0) != 1 || pi.Score(-5, 0, 0) != 0 {
		t.Fatal("PI degenerate cases wrong")
	}
	ucb := UCB{Kappa: 2}
	if ucb.Score(1, 1, 99) != 3 {
		t.Fatalf("UCB = %v, want 3", ucb.Score(1, 1, 99))
	}
	// Default kappa.
	if (UCB{}).Score(0, 1, 0) != 2 {
		t.Fatal("UCB default kappa should be 2")
	}
}

// quadratic test objective with maximum at (0.3, 0.7).
func quadObj(u []float64) float64 {
	dx := u[0] - 0.3
	dy := u[1] - 0.7
	return -(dx*dx + dy*dy)
}

func TestOptimizerFindsQuadraticMax(t *testing.T) {
	s := MustSpace(
		Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
	opt := NewOptimizer(s, Options{Seed: 3, Knobs: Knobs{Candidates: 400, HyperSamples: 3}})
	for i := 0; i < 25; i++ {
		u := opt.Suggest()
		opt.Observe(u, quadObj(u))
	}
	u, y, ok := opt.Best()
	if !ok {
		t.Fatal("no best after 25 steps")
	}
	if y < -0.02 {
		t.Fatalf("best objective %v too far from 0 (u=%v)", y, u)
	}
}

func TestOptimizerBeatsRandomSearch(t *testing.T) {
	s := MustSpace(
		Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
	budget := 20
	opt := NewOptimizer(s, Options{Seed: 5, Knobs: Knobs{Candidates: 300, HyperSamples: 3}})
	for i := 0; i < budget; i++ {
		u := opt.Suggest()
		opt.Observe(u, quadObj(u))
	}
	_, boBest, _ := opt.Best()

	rng := rand.New(rand.NewSource(5))
	randBest := math.Inf(-1)
	for i := 0; i < budget; i++ {
		u := []float64{rng.Float64(), rng.Float64()}
		if v := quadObj(u); v > randBest {
			randBest = v
		}
	}
	if boBest < randBest-0.01 {
		t.Fatalf("BO (%v) should not lose clearly to random (%v)", boBest, randBest)
	}
}

func TestOptimizerInitialDesignIsLHS(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{Seed: 1, InitialDesign: 4})
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		u := opt.Suggest()
		opt.Observe(u, 0)
		// Stratification across separate Suggest calls is asserted by
		// TestInitialDesignStratified; here just the unit-cube bound.
		if u[0] < 0 || u[0] >= 1 {
			t.Fatalf("initial point out of range: %v", u)
		}
		seen[i] = true
	}
	if opt.N() != 4 {
		t.Fatalf("N = %d", opt.N())
	}
}

func TestObserveUnsolicitedPoint(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{Seed: 1})
	opt.Observe([]float64{0.4}, 7)
	u, y, ok := opt.Best()
	if !ok || y != 7 || u[0] != 0.4 {
		t.Fatalf("best = %v %v %v", u, y, ok)
	}
}

func TestOptimizerHandlesConstantObjective(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{Seed: 2, Knobs: Knobs{Candidates: 100, HyperSamples: 2}})
	for i := 0; i < 12; i++ {
		u := opt.Suggest()
		opt.Observe(u, 5.0) // zero variance must not crash standardization
	}
	_, y, _ := opt.Best()
	if y != 5 {
		t.Fatalf("best = %v", y)
	}
}

func TestMaxGPPointsTruncation(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{Seed: 1, Knobs: Knobs{MaxGPPoints: 5}, PriorMean: func(u []float64) float64 { return u[0] }})
	for i := 0; i < 9; i++ {
		opt.Observe([]float64{float64(i) / 10}, float64(i))
	}
	xs, ys, m0 := opt.trainingSet()
	if len(xs) != 5 || len(ys) != 5 || len(m0) != 5 {
		t.Fatalf("training set size = %d/%d/%d, want 5", len(xs), len(ys), len(m0))
	}
	if ys[0] != 4 {
		t.Fatalf("should keep most recent points, got first y = %v", ys[0])
	}
	if m0[0] != 0.4 {
		t.Fatalf("prior means misaligned with the window: first m0 = %v, want 0.4", m0[0])
	}
}

func TestSuggestRecordsDuration(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{Seed: 1})
	opt.Suggest()
	if opt.LastStepDuration <= 0 {
		t.Fatal("LastStepDuration not recorded")
	}
}
