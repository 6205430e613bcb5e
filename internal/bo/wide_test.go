package bo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"stormtune/internal/linalg"
)

// TestWideSolveKeepsProposals hashes the proposals of whole sessions —
// a sequential 60-step one, a q=4 batch one whose asks condition on
// constant-liar fantasies, and one with a transfer prior mean — and
// requires each hash to be the same with linalg's vector forward solve
// on (the grid scan solves sixteen candidates per instruction stream)
// and forced off (four-lane and scalar solves): the wide solve changes
// the cost of an ask and never a proposal.
func TestWideSolveKeepsProposals(t *testing.T) {
	if !linalg.VectorSolve() {
		t.Skipf("vector forward solve is off on this host (AVX2+FMA %v): nothing to compare", linalg.HasAVX2FMA())
	}
	sessions := []struct {
		name  string
		opts  Options
		steps int
		q     int
	}{
		{"sequential", Options{Seed: 3}, 60, 1},
		{"batch-q4", Options{Seed: 5, Knobs: Knobs{Candidates: 500}}, 10, 4},
		{"warm-prior", Options{Seed: 7, PriorMean: testPriorMean}, 30, 1},
	}
	for _, s := range sessions {
		on := proposalHash(s.opts, s.steps, s.q)
		linalg.SetVectorSolve(false)
		off := proposalHash(s.opts, s.steps, s.q)
		linalg.SetVectorSolve(true)
		if on != off {
			t.Errorf("%s: proposals hash %s with the vector solve, %s without", s.name, on, off)
		}
	}
}

// proposalHash runs steps asks of q points against cacheObjective and
// returns the sha256 of every proposal's bits, in order.
func proposalHash(opts Options, steps, q int) string {
	opt := NewOptimizer(cacheTestSpace(), opts)
	h := sha256.New()
	for step := 0; step < steps; step++ {
		for _, u := range opt.SuggestBatch(q) {
			for _, v := range u {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
			opt.Observe(u, cacheObjective(u))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
