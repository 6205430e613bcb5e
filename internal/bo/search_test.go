package bo

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestLocalSearchScoresEachPointOnce counts, through a prior mean that
// the scorer evaluates once per scored point, every point one ask
// scores. Each grid candidate is scored once by the grid scan; beyond
// that the local search may score a point at most once, and never its
// start point.
func TestLocalSearchScoresEachPointOnce(t *testing.T) {
	key := func(u []float64) string {
		var b []byte
		for _, v := range u {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return string(b)
	}
	rescored, first := 0, ""
	search := func(opt *Optimizer, sc *scorer, cands [][]float64) []float64 {
		bi, _ := sc.argmax(cands, 1)
		start := key(cands[bi])
		scored := map[string]int{}
		inner := sc.prior
		sc.prior = func(u []float64) float64 {
			scored[key(u)]++
			return priorAt(inner, u)
		}
		grid := map[string]int{}
		for _, c := range cands {
			grid[key(c)]++
		}
		got := opt.maximize(sc, cands)
		for k, n := range scored {
			local := n - grid[k]
			if local > 1 || (k == start && local > 0) {
				if rescored++; first == "" {
					first = fmt.Sprintf("ask %d: local search scored a point %d times (start point: %v)", len(opt.obs), local, k == start)
				}
			}
		}
		return got
	}
	for _, prior := range []func([]float64) float64{nil, testPriorMean} {
		opt := NewOptimizer(cacheTestSpace(), Options{
			Seed: 3, Knobs: Knobs{Candidates: 40, HyperSamples: 2, LocalSearchIters: 8}, Workers: 1, PriorMean: prior,
		})
		for step := 0; step < 20; step++ {
			u := opt.suggestOne(search)
			opt.Observe(u, cacheObjective(u))
		}
	}
	if rescored > 0 {
		t.Fatalf("%d points rescored; first: %s", rescored, first)
	}
}
