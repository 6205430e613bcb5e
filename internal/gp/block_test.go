package gp

import (
	"math"
	"math/rand"
	"testing"
)

// checkBlockMatchesScalar scores every block size 1..Block at several
// offsets into qs, query i carrying prior mean m0[i], and requires each
// lane to be bitwise PredictInto.
func checkBlockMatchesScalar(t *testing.T, name string, m Surrogate, qs [][]float64, m0 []float64) {
	t.Helper()
	var bs BlockScratch
	var s Scratch
	var mu, s2 [Block]float64
	for w := 1; w <= Block; w++ {
		for off := 0; off+w <= len(qs); off += w {
			blk := qs[off : off+w]
			m.PredictBlockInto(&bs, blk, m0[off:off+w], mu[:w], s2[:w])
			for l, q := range blk {
				wm, ws := m.PredictInto(&s, q, m0[off+l])
				if math.Float64bits(mu[l]) != math.Float64bits(wm) ||
					math.Float64bits(s2[l]) != math.Float64bits(ws) {
					t.Fatalf("%s: width %d lane %d: block (%v, %v) vs scalar (%v, %v)",
						name, w, l, mu[l], s2[l], wm, ws)
				}
			}
		}
	}
}

func randomQueries(rng *rand.Rand, n, d int) [][]float64 {
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = make([]float64, d)
		for j := range qs[i] {
			qs[i][j] = rng.Float64()
		}
	}
	return qs
}

// TestPredictBlockMatchesPredictInto pins PredictBlockInto's lane
// contract on every surrogate: an exact GP with per-query prior means,
// an unfitted GP, and an RFF model.
func TestPredictBlockMatchesPredictInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const d = 3
	xs, ys := randomData(rng, 37, d)
	qs := randomQueries(rng, 13, d)
	qs = append(qs, xs[0]) // a training point: variance near zero
	m0 := make([]float64, len(qs))
	for i, q := range qs {
		m0[i] = 0.5 * q[0]
	}

	g := New(NewMatern52(d, 0.4), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	checkBlockMatchesScalar(t, "gp+prior", g, qs, m0)

	unfitted := New(NewSquaredExp(d, 0.4), 1e-3)
	checkBlockMatchesScalar(t, "unfitted", unfitted, qs, m0)

	r, err := NewRFF(NewMatern52(d, 0.4), 1e-3, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := r.Observe(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkBlockMatchesScalar(t, "rff", r, qs, m0)
}

// TestRefitReusesFactorBitIdentically refits one GP at a fixed n under
// several hyperparameter vectors — the slice-sampling pattern, which
// refactors into the previous factor's storage — and requires each
// result to be bitwise a fresh GP fitted at those hypers.
func TestRefitReusesFactorBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := randomData(rng, 23, 2)
	g := New(NewMatern52(2, 0.3), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	storage := g.chol.L
	for _, h := range [][]float64{{0.2, -1, -0.5, -6}, {-0.3, -2, -1.5, -4}, {0, -0.7, -0.7, -7}} {
		if err := g.SetHypersAndRefit(h); err != nil {
			t.Fatal(err)
		}
		if g.chol.L != storage {
			t.Fatal("same-n refit allocated a new factor")
		}
		fresh := New(NewMatern52(2, 0.3), 1e-3)
		if err := fresh.SetHypersAndRefit(h); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		if g.Jitter() != fresh.Jitter() {
			t.Fatalf("jitter %g vs fresh %g", g.Jitter(), fresh.Jitter())
		}
		for i, v := range g.chol.L.Data {
			if math.Float64bits(v) != math.Float64bits(fresh.chol.L.Data[i]) {
				t.Fatalf("hypers %v: factor entry %d: reused %v vs fresh %v", h, i, v, fresh.chol.L.Data[i])
			}
		}
		if g.LogMarginalLikelihood() != fresh.LogMarginalLikelihood() {
			t.Fatalf("hypers %v: likelihood differs from a fresh fit", h)
		}
	}
}
