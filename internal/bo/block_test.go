package bo

import (
	"math"
	"strings"
	"testing"

	"stormtune/internal/gp"
)

// scalarSearch returns the oracle the blocked acquisition search is
// pinned against: every point is scored alone through PredictInto, each
// model evaluating the prior mean for itself, the grid is scanned
// sequentially with first-index ties from a -Inf start, and local search
// tries the coordinate moves one at a time from the current point. On
// every ask it also checks the lane contract on the real grid:
// scoreBlock's scores must be bitwise the one-point ones, so a last-ulp
// lane error fails even when it moves no decision.
func scalarSearch(t *testing.T) acqSearch {
	return func(opt *Optimizer, sc *scorer, cands [][]float64) []float64 {
		mus := make([]float64, len(sc.models))
		sigmas := make([]float64, len(sc.models))
		scratch := make([]gp.Scratch, len(sc.models))
		score := func(u []float64) float64 {
			for i, m := range sc.models {
				mu, s2 := m.PredictInto(&scratch[i], u, priorAt(opt.Opts.PriorMean, u))
				mus[i] = mu
				sigmas[i] = math.Sqrt(s2)
			}
			return scoreMarginal(sc.acq, mus, sigmas, sc.bestY)
		}

		bi, bestScore := 0, math.Inf(-1)
		scores := make([]float64, len(cands))
		for i, c := range cands {
			scores[i] = score(c)
			if scores[i] > bestScore {
				bi, bestScore = i, scores[i]
			}
		}
		b := sc.newBuf()
		var out [gp.Block]float64
		for lo := 0; lo < len(cands); lo += gp.Block {
			blk := cands[lo:min(lo+gp.Block, len(cands))]
			sc.scoreBlock(b, blk, out[:len(blk)])
			for l, v := range out[:len(blk)] {
				if math.Float64bits(v) != math.Float64bits(scores[lo+l]) {
					t.Fatalf("candidate %d: block score %v vs one-point score %v", lo+l, v, scores[lo+l])
				}
			}
		}

		cur := append([]float64(nil), cands[bi]...)
		step := 0.08
		for it := 0; it < opt.Opts.LocalSearchIters; it++ {
			improved := false
			for j := range cur {
				for _, dir := range []float64{1, -1} {
					trial := append([]float64(nil), cur...)
					trial[j] = clamp01(trial[j] + dir*step)
					trial = opt.confine(trial)
					if s := score(trial); s > bestScore {
						bestScore = s
						cur = trial
						improved = true
					}
				}
			}
			if !improved {
				step /= 2
				if step < 1e-3 {
					break
				}
			}
		}
		return cur
	}
}

// TestBlockedScoringMatchesScalarOracle drives whole sessions through
// the blocked scorer and the one-candidate oracle side by side and
// requires every ask to be bitwise equal: across refit epochs,
// constant-liar batches, a trust region, a transfer prior mean, a
// sliding MaxGPPoints window that rebuilds the ensemble every ask (the
// CLI's path), with and without the prior, and the parallel scan
// (candidate counts and chunk bounds that are not multiples of the
// block width). Each case pins GOMAXPROCS, which sizes the ask's
// goroutine split, so the split runs even on a one-CPU host.
func TestBlockedScoringMatchesScalarOracle(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		opts  func() Options
	}{
		// Three chunks of a grid of 133 candidates: bounds 44 and 88
		// fall inside the 16-wide blocks.
		{"exact-parallel", 3, func() Options {
			return Options{Seed: 5, Knobs: Knobs{Candidates: 122, HyperSamples: 2, LocalSearchIters: 6}}
		}},
		{"exact-sequential-ucb", 1, func() Options {
			return Options{Seed: 8, Knobs: Knobs{Candidates: 57, HyperSamples: 3, LocalSearchIters: 4}, Acq: UCB{}}
		}},
		{"trust-region", 2, func() Options {
			return Options{
				Seed: 6, Knobs: Knobs{Candidates: 90, HyperSamples: 2, LocalSearchIters: 5},
				Trust: &TrustRegion{Center: []float64{0.4, 0.5, 0.6}, Radius: 0.15},
			}
		}},
		{"window", 2, func() Options {
			return Options{
				Seed: 7, Knobs: Knobs{Candidates: 70, HyperSamples: 2, LocalSearchIters: 4, MaxGPPoints: 10},
				InitialDesign: 3,
			}
		}},
		{"prior-mean", 2, func() Options {
			return Options{
				Seed: 4, Knobs: Knobs{Candidates: 93, HyperSamples: 3, LocalSearchIters: 5},
				PriorMean: testPriorMean,
			}
		}},
		{"prior-mean-window", 2, func() Options {
			return Options{
				Seed: 9, Knobs: Knobs{Candidates: 70, HyperSamples: 2, LocalSearchIters: 4, MaxGPPoints: 10},
				InitialDesign: 3, PriorMean: testPriorMean,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setGOMAXPROCS(t, tc.procs)
			blocked := NewOptimizer(cacheTestSpace(), tc.opts())
			oracle := NewOptimizer(cacheTestSpace(), tc.opts())
			search := scalarSearch(t)
			slid := 0 // asks made with more observations than the window holds
			for step := 0; step < 24; step++ {
				if w := blocked.Opts.MaxGPPoints; w > 0 && blocked.N() > w {
					slid++
				}
				var ub, uo [][]float64
				if step%5 == 4 {
					ub = blocked.SuggestBatch(3)
					for k := 0; k < 3; k++ {
						uo = append(uo, oracle.suggestOne(search))
					}
				} else {
					ub = [][]float64{blocked.Suggest()}
					uo = [][]float64{oracle.suggestOne(search)}
				}
				for k := range ub {
					for j := range ub[k] {
						if math.Float64bits(ub[k][j]) != math.Float64bits(uo[k][j]) {
							t.Fatalf("step %d point %d: blocked %v vs oracle %v", step, k, ub[k], uo[k])
						}
					}
					y := cacheObjective(ub[k])
					blocked.Observe(ub[k], y)
					oracle.Observe(uo[k], y)
				}
			}
			if strings.HasSuffix(tc.name, "window") && slid == 0 {
				t.Fatal("the window never slid")
			}
		})
	}
}

// nanAcq scores every point NaN, so no score ever beats the -Inf start.
type nanAcq struct{}

func (nanAcq) Score(_, _, _ float64) float64 { return math.NaN() }
func (nanAcq) Name() string                  { return "nan" }

// TestArgmaxTieBreaking pins the blocked scan's first-index rule: with
// the grid repeating a few points, the earliest copy of the best one
// wins for every worker count, and a grid that never beats -Inf picks
// index 0.
func TestArgmaxTieBreaking(t *testing.T) {
	g := gp.New(gp.NewMatern52(3, 0.3), 1e-3)
	if err := g.Fit([][]float64{{0.2, 0.2, 0.2}, {0.8, 0.5, 0.1}}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	pts := [][]float64{{0.1, 0.1, 0.1}, {0.7, 0.5, 0.2}, {0.5, 0.5, 0.5}, {0.3, 0.9, 0.4}, {0.9, 0.1, 0.9}}
	var cands [][]float64
	for i := 0; i < 131; i++ {
		cands = append(cands, pts[(i+3)%len(pts)])
	}
	sc := &scorer{models: []*gp.GP{g}, acq: EI{}, bestY: 0.5}
	var s gp.Scratch
	want, wantScore := 0, math.Inf(-1)
	for i, c := range cands {
		mu, s2 := g.PredictInto(&s, c, 0)
		if v := scoreMarginal(sc.acq, []float64{mu}, []float64{math.Sqrt(s2)}, sc.bestY); v > wantScore {
			want, wantScore = i, v
		}
	}
	for _, w := range []int{1, 2, 3, 7} {
		if bi, bs := sc.argmax(cands, w); bi != want || bs != wantScore {
			t.Fatalf("w=%d: argmax (%d, %v), want (%d, %v)", w, bi, bs, want, wantScore)
		}
	}

	nan := &scorer{models: []*gp.GP{g}, acq: nanAcq{}}
	for _, w := range []int{1, 3} {
		if bi, bs := nan.argmax(cands, w); bi != 0 || !math.IsInf(bs, -1) {
			t.Fatalf("w=%d: all-NaN argmax (%d, %v), want (0, -Inf)", w, bi, bs)
		}
	}
}
