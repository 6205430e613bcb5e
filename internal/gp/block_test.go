package gp

import (
	"math"
	"math/rand"
	"testing"

	"stormtune/internal/linalg"
)

// checkBlockMatchesScalar scores every block size 1..Block at several
// offsets into qs, query i carrying prior mean m0[i], and requires each
// lane to be bitwise PredictInto — with the vector kernels and linalg's
// vector forward solve as the host runs them (full blocks take the wide
// path, their kernel rows the sixteen-candidate block kernel), with the
// vector kernels forced off (the wide path evaluates each lane's row
// and scatters it), and with the vector solve forced off (every block
// solves four lanes at a time).
func checkBlockMatchesScalar(t *testing.T, name string, m *GP, qs [][]float64, m0 []float64) {
	t.Helper()
	checkBlockWidths(t, name, m, qs, m0)
	if !linalg.VectorSolve() {
		t.Logf("%s: vector forward solve is off on this host: the wide path is not checked", name)
		return
	}
	if setVectorRow(false) {
		func() {
			defer setVectorRow(true)
			checkBlockWidths(t, name+"/vector-row-off", m, qs, m0)
		}()
	} else {
		t.Logf("%s: vector kernels are off on this host: the block kernel is not checked", name)
	}
	defer linalg.SetVectorSolve(linalg.SetVectorSolve(false))
	checkBlockWidths(t, name+"/vector-solve-off", m, qs, m0)
}

func checkBlockWidths(t *testing.T, name string, m *GP, qs [][]float64, m0 []float64) {
	t.Helper()
	var bs BlockScratch
	var s Scratch
	var mu, s2 [Block]float64
	for w := 1; w <= Block; w++ {
		for off := 0; off+w <= len(qs); off += w {
			blk := qs[off : off+w]
			PredictBlockInto([]*GP{m}, &bs, blk, m0[off:off+w], mu[:w], s2[:w])
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
// contract on a fitted GP with per-query prior means and on an unfitted
// GP.
func TestPredictBlockMatchesPredictInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const d = 3
	xs, ys := randomData(rng, 37, d)
	qs := randomQueries(rng, 2*Block+5, d)
	qs[3] = xs[0] // a training point: variance near zero
	m0 := make([]float64, len(qs))
	for i, q := range qs {
		m0[i] = 0.5 * q[0]
	}

	g := New(NewMatern52(d, 0.4), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	checkBlockMatchesScalar(t, "gp+prior", g, qs, m0)

	unfitted := New(NewMatern52(d, 0.4), 1e-3)
	checkBlockMatchesScalar(t, "unfitted", unfitted, qs, m0)

	// Short length scales put most kernel entries in exp's subnormal
	// and underflow tails.
	short := New(&Matern52{Amp2: 1.7, Lengths: []float64{2e-3, 3e-3, 2.5e-3}}, 1e-3)
	if err := short.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	checkBlockMatchesScalar(t, "short-lengths", short, qs, m0)

	// A zero length scale installed after the fit makes r NaN or +Inf
	// for every query: the block kernel declines, the lanes take the
	// per-lane rows, and every lane is still PredictInto's (NaN) bits.
	g.Kern.Lengths[1] = 0
	checkBlockMatchesScalar(t, "zero-length", g, qs, m0)
}

// TestPredictEnsembleBlockMatchesPredictInto runs blocks of every width
// through PredictBlockInto on an ensemble whose models differ
// in length scales, one of them zero (its blocks decline the kernel
// block), and requires each model's lanes to be bitwise its
// PredictInto: the block's candidates, transposed once for the
// ensemble, serve every model.
func TestPredictEnsembleBlockMatchesPredictInto(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const d = 3
	xs, ys := randomData(rng, 29, d)
	qs := randomQueries(rng, 2*Block+3, d)
	m0 := make([]float64, len(qs))
	for i, q := range qs {
		m0[i] = 0.3*q[1] - 0.1
	}
	var models []*GP
	for _, ls := range [][]float64{{0.4, 0.4, 0.4}, {0.2, 0.7, 0.3}, {0.5, 0, 0.5}, {2e-3, 3e-3, 2.5e-3}} {
		g := New(&Matern52{Amp2: 1.2, Lengths: []float64{0.3, 0.3, 0.3}}, 1e-3)
		if err := g.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		copy(g.Kern.Lengths, ls)
		models = append(models, g)
	}
	var bs BlockScratch
	var s Scratch
	mu := make([]float64, len(models)*Block)
	s2 := make([]float64, len(models)*Block)
	for w := 1; w <= Block; w++ {
		for off := 0; off+w <= len(qs); off += w {
			blk := qs[off : off+w]
			PredictBlockInto(models, &bs, blk, m0[off:off+w], mu, s2)
			for i, m := range models {
				for l, q := range blk {
					wm, ws := m.PredictInto(&s, q, m0[off+l])
					if math.Float64bits(mu[i*Block+l]) != math.Float64bits(wm) ||
						math.Float64bits(s2[i*Block+l]) != math.Float64bits(ws) {
						t.Fatalf("width %d model %d lane %d: ensemble (%v, %v) vs scalar (%v, %v)",
							w, i, l, mu[i*Block+l], s2[i*Block+l], wm, ws)
					}
				}
			}
		}
	}
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
