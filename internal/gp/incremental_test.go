package gp

import (
	"math"
	"math/rand"
	"testing"
)

func randomData(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		s := 0.0
		for j := range x {
			x[j] = rng.Float64()
			s += math.Sin(3 * x[j])
		}
		xs[i] = x
		ys[i] = s + 0.05*rng.NormFloat64()
	}
	return xs, ys
}

// TestGPObserveMatchesFit pins the cache contract: a GP grown one
// Observe at a time (one kernel row per point) is bit-identical —
// factor, alpha, mean, posterior — to a GP fitted cold on the same
// data at the same hyperparameters, whose refit builds its matrix in
// sixteen-point panels from n = Block on. The two are compared at
// every n across the first two panels, in dimensions on both sides of
// the panels' stack size classes.
func TestGPObserveMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{4, 11, 40} {
		length := 0.15 * math.Sqrt(float64(d))
		xs, ys := randomData(rng, 2*Block+3, d)
		inc := New(NewMatern52(d, length), 1e-4)
		var cold *GP
		for i := range xs {
			if err := inc.Observe(xs[i], ys[i]); err != nil {
				t.Fatalf("d=%d: observe %d: %v", d, i, err)
			}
			n := i + 1
			if n < Block-2 {
				continue
			}
			cold = New(NewMatern52(d, length), 1e-4)
			if err := cold.Fit(xs[:n], ys[:n]); err != nil {
				t.Fatal(err)
			}
			if inc.Jitter() != cold.Jitter() || inc.Mean != cold.Mean {
				t.Fatalf("d=%d n=%d: jitter %g, mean %g incremental vs %g, %g cold", d, n, inc.Jitter(), inc.Mean, cold.Jitter(), cold.Mean)
			}
			for j, v := range inc.chol.L.Data {
				if math.Float64bits(v) != math.Float64bits(cold.chol.L.Data[j]) {
					t.Fatalf("d=%d n=%d: factor entry %d: %g vs %g", d, n, j, v, cold.chol.L.Data[j])
				}
			}
			for j, v := range inc.alpha {
				if math.Float64bits(v) != math.Float64bits(cold.alpha[j]) {
					t.Fatalf("d=%d n=%d: alpha entry %d: %g vs %g", d, n, j, v, cold.alpha[j])
				}
			}
		}
		for trial := 0; trial < 50; trial++ {
			q := randomQueries(rng, 1, d)[0]
			m1, v1 := inc.Predict(q)
			m2, v2 := cold.Predict(q)
			if m1 != m2 || v1 != v2 {
				t.Fatalf("d=%d: posterior differs at %v: (%g,%g) vs (%g,%g)", d, q, m1, v1, m2, v2)
			}
		}
	}
}

// TestGPRetractRestores appends fantasy points and retracts them in
// reverse order, requiring the original factor, alpha and mean back
// bit-for-bit — the constant-liar batch contract.
func TestGPRetractRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, ys := randomData(rng, 20, 3)
	g := New(NewMatern52(3, 0.3), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	wantL := append([]float64(nil), g.chol.L.Data...)
	wantAlpha := append([]float64(nil), g.alpha...)
	wantMean := g.Mean

	fx, fy := randomData(rng, 4, 3)
	for i := range fx {
		if err := g.Observe(fx[i], fy[i]); err != nil {
			t.Fatalf("fantasy observe %d: %v", i, err)
		}
	}
	if g.N() != len(xs)+len(fx) {
		t.Fatalf("n = %d", g.N())
	}
	for i := len(fx) - 1; i >= 0; i-- {
		if err := g.Retract(fx[i]); err != nil {
			t.Fatalf("retract %d: %v", i, err)
		}
	}
	if g.N() != len(xs) {
		t.Fatalf("n after retract = %d", g.N())
	}
	for i, v := range g.chol.L.Data {
		if v != wantL[i] {
			t.Fatalf("factor entry %d not restored", i)
		}
	}
	for i, v := range g.alpha {
		if v != wantAlpha[i] {
			t.Fatalf("alpha entry %d not restored", i)
		}
	}
	if g.Mean != wantMean {
		t.Fatalf("mean not restored: %g vs %g", g.Mean, wantMean)
	}

	// Retracting a point that is not the most recent must fail.
	if err := g.Retract(xs[0]); err == nil && len(xs) > 1 {
		t.Fatal("retract of non-trailing point succeeded")
	}
}

// TestGPRefitInvalidation pins the invalidation rule: a hyperparameter
// refit mid-session (after incremental observes) produces posteriors
// identical to a cold rebuild with the same hypers on the same data.
func TestGPRefitInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs, ys := randomData(rng, 25, 3)

	g := New(NewMatern52(3, 0.3), 1e-4)
	if err := g.Fit(xs[:10], ys[:10]); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < len(xs); i++ {
		if err := g.Observe(xs[i], ys[i]); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	newHypers := []float64{math.Log(1.7), math.Log(0.21), math.Log(0.45), math.Log(0.33), math.Log(2e-4)}
	if err := g.SetHypersAndRefit(newHypers); err != nil {
		t.Fatal(err)
	}

	cold := New(NewMatern52(3, 0.3), 1e-4)
	if err := cold.SetHypersAndRefit(append([]float64(nil), newHypers...)); err != nil {
		t.Fatal(err)
	}
	if err := cold.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		m1, v1 := g.Predict(q)
		m2, v2 := cold.Predict(q)
		if m1 != m2 || v1 != v2 {
			t.Fatalf("post-refit posterior differs at %v: (%g,%g) vs (%g,%g)", q, m1, v1, m2, v2)
		}
	}
}

// TestGPObserveFallbackRefits forces an Extend failure — a duplicate
// point with the noise variance far below the diagonal's rounding
// granularity makes the extension numerically indefinite at the
// recorded (zero) jitter — and checks Observe transparently falls back
// to a full refit with jitter escalation that still answers queries.
func TestGPObserveFallbackRefits(t *testing.T) {
	kern := NewMatern52(2, 0.5)
	kern.Amp2 = 1e12 // noise/amp² ≈ 1e-22 < one ulp: duplicates round to singular
	g := New(kern, 1e-10)
	pt := []float64{0.4, 0.6}
	if err := g.Observe(pt, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := g.Observe(pt, 1.0); err != nil {
		t.Fatalf("duplicate observe: %v", err)
	}
	mu, sigma2 := g.Predict(pt)
	if math.IsNaN(mu) || math.IsNaN(sigma2) {
		t.Fatalf("degenerate posterior: %g, %g", mu, sigma2)
	}
	if g.Jitter() == 0 {
		t.Fatal("expected jitter escalation on the fallback path")
	}
}
