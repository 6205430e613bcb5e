package stats

import (
	"math"
	"math/rand"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Variance(xs), 32.0/7.0, 1e-12, "variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "stddev")
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of one sample should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	approx(t, Min(xs), -1, 0, "min")
	approx(t, Max(xs), 5, 0, "max")
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	approx(t, s.Mean, 2, 1e-12, "mean")
}

func TestNormalPDFCDF(t *testing.T) {
	approx(t, NormalPDF(0), 1/math.Sqrt(2*math.Pi), 1e-12, "pdf(0)")
	approx(t, NormalCDF(0), 0.5, 1e-12, "cdf(0)")
	approx(t, NormalCDF(1.959963985), 0.975, 1e-6, "cdf(1.96)")
	approx(t, NormalCDF(-1.959963985), 0.025, 1e-6, "cdf(-1.96)")
}

func TestStudentTCDF(t *testing.T) {
	// Known values: t=0 → 0.5; nu=1 (Cauchy): CDF(1) = 0.75.
	approx(t, StudentTCDF(0, 5), 0.5, 1e-12, "t0")
	approx(t, StudentTCDF(1, 1), 0.75, 1e-8, "cauchy1")
	approx(t, StudentTCDF(-1, 1), 0.25, 1e-8, "cauchy-1")
	// Large nu approaches the normal.
	approx(t, StudentTCDF(1.96, 1e6), NormalCDF(1.96), 1e-4, "largenu")
	// Classic table value: nu=10, t=2.228 → 0.975.
	approx(t, StudentTCDF(2.228, 10), 0.975, 1e-4, "tableval")
}

func TestWelchTTestEqualSamples(t *testing.T) {
	a := []float64{5, 6, 7, 8, 9}
	r := WelchTTest(a, a)
	if r.SignificantAt(0.05) {
		t.Fatalf("identical samples must not be significant: %+v", r)
	}
	approx(t, r.T, 0, 1e-12, "t")
}

func TestWelchTTestClearlyDifferent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = 10 + rng.NormFloat64()
		b[i] = 20 + rng.NormFloat64()
	}
	r := WelchTTest(a, b)
	if !r.SignificantAt(0.05) {
		t.Fatalf("means 10 vs 20 should be significant: %+v", r)
	}
	if r.T >= 0 {
		t.Fatalf("expected negative t for mean(a) < mean(b), got %v", r.T)
	}
}

func TestWelchTTestOverlapping(t *testing.T) {
	// Same distribution — should usually not be significant.
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = 10 + rng.NormFloat64()
		b[i] = 10 + rng.NormFloat64()
	}
	r := WelchTTest(a, b)
	if r.P < 0.01 {
		t.Fatalf("same-distribution samples significant at 1%%: %+v", r)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	r := WelchTTest([]float64{1}, []float64{2, 3})
	if !math.IsNaN(r.P) {
		t.Fatalf("expected NaN p for undersized sample, got %+v", r)
	}
	// Zero variance, equal means.
	r = WelchTTest([]float64{5, 5, 5}, []float64{5, 5})
	approx(t, r.P, 1, 0, "p equal consts")
	// Zero variance, different means.
	r = WelchTTest([]float64{5, 5, 5}, []float64{6, 6})
	approx(t, r.P, 0, 0, "p diff consts")
}

func TestLoessRecoversLine(t *testing.T) {
	// LOESS of degree 1 must reproduce a straight line exactly.
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*float64(i) + 2
	}
	got := Loess(xs, ys, 0.75, []float64{0, 10.5, 25, 49})
	want := []float64{2, 33.5, 77, 149}
	for i := range got {
		approx(t, got[i], want[i], 1e-8, "loess line")
	}
}

func TestLoessSmoothsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1) * 10
		ys[i] = math.Sin(xs[i]) + 0.2*rng.NormFloat64()
	}
	ev := []float64{2, 5, 8}
	got := Loess(xs, ys, 0.3, ev)
	for i, x := range ev {
		if math.Abs(got[i]-math.Sin(x)) > 0.25 {
			t.Fatalf("loess(%v) = %v, want about %v", x, got[i], math.Sin(x))
		}
	}
}

func TestLoessEmptyAndTies(t *testing.T) {
	out := Loess(nil, nil, 0.75, []float64{1, 2})
	if !math.IsNaN(out[0]) || !math.IsNaN(out[1]) {
		t.Fatalf("empty input should yield NaN")
	}
	// All-identical x: degenerate fit should return the mean.
	xs := []float64{1, 1, 1, 1}
	ys := []float64{2, 4, 6, 8}
	got := Loess(xs, ys, 0.75, []float64{1})
	approx(t, got[0], 5, 1e-9, "ties")
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("bounds wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.37, 0.5, 0.9} {
		approx(t, regIncBeta(1, 1, x), x, 1e-10, "I(1,1)")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, regIncBeta(2.5, 4, 0.3), 1-regIncBeta(4, 2.5, 0.7), 1e-10, "symmetry")
}
