package bo

import (
	"math"
	"testing"
)

func TestEnumValuePanicsOnNonEnum(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.EnumValue(0, 0)
}

func TestMustSpacePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustSpace(Dim{Name: "bad", Kind: Float, Min: 2, Max: 1})
}

func TestDecodePanicsOnWrongDim(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Decode([]float64{0.1, 0.2})
}

func TestObservePanicsOnWrongDim(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	opt.Observe([]float64{0.1, 0.2}, 1)
}

func TestSeedCandidatesAreConsidered(t *testing.T) {
	s := MustSpace(
		Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
	// An objective whose optimum sits exactly on a seeded point that
	// random candidates are unlikely to hit precisely.
	target := []float64{0.123456, 0.654321}
	opt := NewOptimizer(s, Options{
		Seed:           3,
		Knobs:          Knobs{Candidates: 50, HyperSamples: 2},
		SeedCandidates: [][]float64{target},
		InitialDesign:  3,
	})
	obj := func(u []float64) float64 {
		d0 := u[0] - target[0]
		d1 := u[1] - target[1]
		return -(d0*d0 + d1*d1)
	}
	// The local search may refine around the seed, so assert the
	// optimizer samples its close neighbourhood rather than the exact
	// point.
	closest := math.Inf(1)
	for i := 0; i < 15; i++ {
		u := opt.Suggest()
		d := math.Hypot(u[0]-target[0], u[1]-target[1])
		if d < closest {
			closest = d
		}
		opt.Observe(u, obj(u))
	}
	if closest > 0.05 {
		t.Fatalf("optimizer never came near the seeded optimum (closest %v)", closest)
	}
}

func TestBestOnEmptyOptimizer(t *testing.T) {
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{})
	if _, _, ok := opt.Best(); ok {
		t.Fatal("Best should report !ok before observations")
	}
}

func TestMeanStdDegenerate(t *testing.T) {
	m, sd := meanStd(nil)
	if m != 0 || sd != 1 {
		t.Fatalf("meanStd(nil) = %v, %v", m, sd)
	}
	m, sd = meanStd([]float64{3, 3, 3})
	if m != 3 || sd != 1 {
		t.Fatalf("constant meanStd = %v, %v (std must clamp to 1)", m, sd)
	}
}

func TestScoreMarginalEmpty(t *testing.T) {
	if !math.IsInf(scoreMarginal(EI{}, nil, nil, 0), -1) {
		t.Fatal("empty marginal should be -Inf")
	}
}
