package gp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSetHypersAndRefitValidation(t *testing.T) {
	g := New(NewMatern52(2, 0.3), 1e-4)
	if err := g.SetHypersAndRefit([]float64{0, 0}); err == nil {
		t.Fatal("wrong-length hypers accepted")
	}
	x := [][]float64{{0.1, 0.1}, {0.9, 0.2}}
	y := []float64{1, 2}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	h := append(g.Kern.Hypers(), math.Log(1e-3))
	if err := g.SetHypersAndRefit(h); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Noise-1e-3) > 1e-12 {
		t.Fatalf("noise = %v, want 1e-3", g.Noise)
	}
}

func TestLogMarginalBeforeFit(t *testing.T) {
	g := New(NewMatern52(1, 0.3), 1e-4)
	if !math.IsInf(g.LogMarginalLikelihood(), -1) {
		t.Fatal("LML before fit should be -Inf")
	}
}

func TestSetHypersPanicsOnKernelMismatch(t *testing.T) {
	k := NewMatern52(2, 0.3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.SetHypers([]float64{0})
}

func TestSliceSamplerRecoversFromBadStart(t *testing.T) {
	// A start so extreme that the posterior is -Inf forces the
	// sampler's reset path.
	rng := rand.New(rand.NewSource(3))
	x := [][]float64{{0.1}, {0.5}, {0.9}}
	y := []float64{0, 1, 0}
	g := New(NewMatern52(1, math.Exp(200)), math.Exp(200))
	_ = g.Fit(x, y)
	samples := g.SliceSampleHypers(rng, 4, 1)
	if len(samples) != 4 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("degenerate sample %v", s)
			}
		}
	}
}

func TestHyperPriorPrefersModerateValues(t *testing.T) {
	moderate := []float64{math.Log(0.3), math.Log(0.3)}
	extreme := []float64{math.Log(1e6), math.Log(1e-9)}
	if hyperPrior(moderate) <= hyperPrior(extreme) {
		t.Fatal("prior should prefer moderate hyperparameters")
	}
}

// TestSelfCovMatchesEval pins the prior-variance shortcut the block
// queries take to Eval(x, x) bit for bit: finite and non-finite points
// under regular, zero, negative-zero, NaN, infinite, denormal and
// negative length scales.
func TestSelfCovMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	points := [][]float64{{0.2, 0.9, 0.4}, {0, 1, 0.5}, {math.Inf(1), 0.1, 0.2}, {0.3, math.NaN(), 0.1}, {-2, 3e300, -1e-310}}
	for i := 0; i < 20; i++ {
		points = append(points, []float64{rng.Float64(), rng.NormFloat64(), rng.Float64()})
	}
	for _, l := range append([]float64{0.3, 7}, specialLengths...) {
		k := &Matern52{Amp2: math.Exp(rng.NormFloat64()), Lengths: []float64{0.5, l, 0.2}}
		regular := regularLengths(k.Lengths)
		for _, x := range points {
			got, want := k.selfCov(x, regular), k.Eval(x, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lengths %v, x %v: selfCov %v (%#x), Eval %v (%#x)",
					k.Lengths, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestRefitMatrixMatchesEval pins the kernel matrix refit builds with
// its once-per-refit reciprocal length scales: every entry below the
// diagonal is bitwise the EvalRow entry and every diagonal entry
// Eval(x, x) plus the noise variance. The upper triangle is not
// written (Refactor never reads it). The sizes straddle
// panelCrossover and put a full, partial or one-point last panel
// behind the sixteen-point panels; a NaN length scale makes every
// panel decline, so the row loop must write the whole matrix.
func TestRefitMatrixMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 4, 15, 16, 17, 19, 33, 60} {
		for _, lengths := range [][]float64{{0.3, 0.05, 2, 0.7}, {0.3, math.NaN(), 2, 0.7}} {
			xs, ys := randomData(rng, n, 4)
			g := New(&Matern52{Amp2: 1.4, Lengths: lengths}, 1e-3)
			err := g.Fit(xs, ys)
			if err != nil && !math.IsNaN(lengths[1]) {
				t.Fatal(err)
			}
			row := make([]float64, n)
			for i, x := range xs {
				g.Kern.EvalRow(x, xs, row)
				for j, w := range row[:i+1] {
					if i == j {
						w = g.Kern.Eval(x, x) + g.Noise
					}
					if got := g.kmat.Data[i*n+j]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("n=%d lengths=%v: K[%d][%d] = %v (%#x), want %v (%#x)",
							n, lengths, i, j, got, math.Float64bits(got), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}
