package bo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"stormtune/internal/gp"
)

// TestHaltonOffsetBounded is the regression test for the operator-
// precedence bug: `1+len*17%1000` parsed as `1+((len*17)%1000)`, which
// reaches 1000 instead of staying inside the intended bound.
func TestHaltonOffsetBounded(t *testing.T) {
	for n := 0; n < 3000; n++ {
		off := haltonOffset(n)
		if off < 1 || off > 999 {
			t.Fatalf("haltonOffset(%d) = %d, want within [1, 999]", n, off)
		}
	}
	// n = 647 is where the old expression escaped the bound:
	// 1 + ((647*17) % 1000) = 1000.
	if old := 1 + 647*17%1000; old != 1000 {
		t.Fatalf("precedence premise changed: %d", old)
	}
	if got := haltonOffset(647); got != 1 {
		t.Fatalf("haltonOffset(647) = %d, want 1", got)
	}
}

// TestInitialDesignStratified verifies the LHS-seeding fix: the initial
// design is one stratified Latin hypercube handed out point by point,
// so in 1-D every point lands in a distinct stratum.
func TestInitialDesignStratified(t *testing.T) {
	const k = 8
	s := MustSpace(Dim{Name: "x", Kind: Float, Min: 0, Max: 1})
	opt := NewOptimizer(s, Options{Seed: 1, InitialDesign: k})
	seen := map[int]bool{}
	for i := 0; i < k; i++ {
		u := opt.Suggest()
		if u[0] < 0 || u[0] >= 1 {
			t.Fatalf("initial point out of range: %v", u)
		}
		stratum := int(u[0] * k)
		if seen[stratum] {
			t.Fatalf("stratum %d hit twice — initial design is not a Latin hypercube", stratum)
		}
		seen[stratum] = true
		opt.Observe(u, 0)
	}
	if len(seen) != k {
		t.Fatalf("covered %d strata, want %d", len(seen), k)
	}
}

func TestLiarValues(t *testing.T) {
	ys := []float64{1, 2, 6}
	if v := liarValue(ys); v != 1 {
		t.Fatalf("liarValue = %v", v)
	}
}

func TestSuggestBatchCountsAndPending(t *testing.T) {
	s := MustSpace(
		Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
	opt := NewOptimizer(s, Options{Seed: 2, InitialDesign: 3, Knobs: Knobs{Candidates: 100, HyperSamples: 2}})
	batch := opt.SuggestBatch(4)
	if len(batch) != 4 {
		t.Fatalf("batch size = %d", len(batch))
	}
	if opt.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", opt.Pending())
	}
	for _, u := range batch {
		opt.Observe(u, quadObj(u))
	}
	if opt.Pending() != 0 {
		t.Fatalf("pending after observe = %d", opt.Pending())
	}
	if opt.SuggestBatch(0) != nil {
		t.Fatal("q=0 should return nil")
	}
	if opt.LastStepDuration <= 0 {
		t.Fatal("batch duration not recorded")
	}
}

// TestSuggestBatchSpreads checks the constant-liar effect: once the GP
// drives suggestions, a batch must not collapse onto one acquisition
// maximum.
func TestSuggestBatchSpreads(t *testing.T) {
	s := MustSpace(
		Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
		Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
	opt := NewOptimizer(s, Options{Seed: 4, InitialDesign: 4, Knobs: Knobs{Candidates: 200, HyperSamples: 2}})
	for i := 0; i < 6; i++ {
		u := opt.Suggest()
		opt.Observe(u, quadObj(u))
	}
	batch := opt.SuggestBatch(4)
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			d := 0.0
			for k := range batch[i] {
				diff := batch[i][k] - batch[j][k]
				d += diff * diff
			}
			if math.Sqrt(d) < 1e-6 {
				t.Fatalf("batch points %d and %d coincide: %v", i, j, batch[i])
			}
		}
	}
}

// setGOMAXPROCS sets GOMAXPROCS, which sizes an ask's goroutine split
// (the grid scan's chunks and the ensemble refit), to n until the test
// ends. GOMAXPROCS is process-wide, so a test that calls it must not
// call t.Parallel.
func setGOMAXPROCS(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSuggestBatchDeterministic runs the same seeded optimization at
// GOMAXPROCS 1 and 8; every suggestion must be bit-identical.
func TestSuggestBatchDeterministic(t *testing.T) {
	run := func(procs int) [][]float64 {
		setGOMAXPROCS(t, procs)
		s := MustSpace(
			Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
			Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
		)
		opt := NewOptimizer(s, Options{
			Seed: 7, InitialDesign: 4, Knobs: Knobs{Candidates: 300, HyperSamples: 3},
		})
		var all [][]float64
		for round := 0; round < 4; round++ {
			batch := opt.SuggestBatch(3)
			for _, u := range batch {
				all = append(all, u)
				opt.Observe(u, quadObj(u))
			}
		}
		return all
	}
	a := run(1)
	b := run(8)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("suggestion %d differs between GOMAXPROCS 1 and 8: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// TestBatchRegretParity gives the batch optimizer the same total budget
// as the sequential one on the quadratic objective; its best objective
// must come out within 10% of the sequential result's distance to the
// optimum (both should essentially find the maximum at 0).
func TestBatchRegretParity(t *testing.T) {
	budget := 24
	seqBest := func() float64 {
		s := MustSpace(
			Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
			Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
		)
		opt := NewOptimizer(s, Options{Seed: 3, Knobs: Knobs{Candidates: 300, HyperSamples: 3}})
		for i := 0; i < budget; i++ {
			u := opt.Suggest()
			opt.Observe(u, quadObj(u))
		}
		_, y, _ := opt.Best()
		return y
	}()
	for _, q := range []int{2, 4} {
		s := MustSpace(
			Dim{Name: "x", Kind: Float, Min: 0, Max: 1},
			Dim{Name: "y", Kind: Float, Min: 0, Max: 1},
		)
		opt := NewOptimizer(s, Options{Seed: 3, Knobs: Knobs{Candidates: 300, HyperSamples: 3}})
		for done := 0; done < budget; {
			batch := opt.SuggestBatch(q)
			for _, u := range batch {
				opt.Observe(u, quadObj(u))
				done++
			}
		}
		_, y, ok := opt.Best()
		if !ok {
			t.Fatalf("q=%d: no best", q)
		}
		// Regret (distance below the optimum at 0) within 10% of the
		// sequential regret, with an absolute floor for noise-free ties.
		seqRegret := -seqBest
		batchRegret := -y
		if batchRegret > seqRegret*1.1+0.01 {
			t.Fatalf("q=%d: batch regret %v vs sequential %v", q, batchRegret, seqRegret)
		}
	}
}

func TestParallelForMatchesSequential(t *testing.T) {
	for _, w := range []int{1, 2, 7, 16} {
		n := 101
		out := make([]int, n)
		parallelFor(w, n, func(i int) { out[i] = i * i })
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("w=%d: out[%d] = %d", w, i, out[i])
			}
		}
	}
	// n=0 must not hang or panic.
	parallelFor(4, 0, func(int) { t.Fatal("called for empty range") })
}

// TestArgmaxMatchesSequential cross-checks the chunked parallel argmax
// against a plain scan on a fitted surrogate over a fixed grid.
func TestArgmaxMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([][]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = quadObj(xs[i])
	}
	g := gp.New(gp.NewMatern52(2, 0.3), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	sc := scorer{models: []*gp.GP{g}, acq: EI{}, bestY: maxOf(ys)}
	cands := make([][]float64, 500)
	for i := range cands {
		cands[i] = []float64{rng.Float64(), rng.Float64()}
	}
	wantIdx, wantScore := sc.argmax(cands, 1)
	for _, w := range []int{2, 4, 16} {
		idx, score := sc.argmax(cands, w)
		if idx != wantIdx || score != wantScore {
			t.Fatalf("w=%d: argmax (%d, %v) != sequential (%d, %v)", w, idx, score, wantIdx, wantScore)
		}
	}
	if idx, _ := sc.argmax(nil, 4); idx != -1 {
		t.Fatalf("empty argmax idx = %d", idx)
	}
}

func maxOf(ys []float64) float64 {
	m := math.Inf(-1)
	for _, y := range ys {
		if y > m {
			m = y
		}
	}
	return m
}
