package bo

import (
	"math"
	"sync"
	"time"

	"stormtune/internal/gp"
)

// liarValue is the constant lie assigned to pending points when the
// surrogate is conditioned on an in-flight batch (Ginsbourger, Le Riche
// & Carraro's constant-liar heuristic): the worst of the non-empty
// observed objectives ys. We maximize, so this is the pessimistic lie;
// it pushes the acquisition away from already-suggested points and
// gives the most diverse batches.
func liarValue(ys []float64) float64 {
	m := math.Inf(1)
	for _, y := range ys {
		if y < m {
			m = y
		}
	}
	return m
}

// SuggestBatch proposes q unit-cube points to evaluate concurrently.
// Initial-design points come from the shared Latin hypercube; once the
// surrogate takes over, each successive point is chosen with the
// already-suggested (pending) points conditioned in as constant-liar
// fantasies, so the batch spreads over the acquisition landscape instead
// of collapsing onto one maximum. Observe each returned point (in any
// order) to retire its fantasy. The result is deterministic for a fixed
// seed and any Workers count.
func (opt *Optimizer) SuggestBatch(q int) [][]float64 {
	//lint:wallclock telemetry: decision-time accounting, never a proposal input
	start := time.Now()
	//lint:wallclock telemetry: decision-time accounting, never a proposal input
	defer func() { opt.LastStepDuration = time.Since(start) }()
	opt.resetScores()
	if q <= 0 {
		return nil
	}
	out := make([][]float64, 0, q)
	for i := 0; i < q; i++ {
		out = append(out, opt.suggestOne((*Optimizer).maximize))
	}
	return out
}

// Pending returns the number of suggested-but-unobserved points the
// surrogate is currently treating as constant-liar fantasies.
func (opt *Optimizer) Pending() int { return len(opt.pending) }

// haltonOffset maps the observation count to the start index of the
// Halton block mixed into the candidate grid, bounded to [1, 999] (the
// sequence degenerates to the origin at index 0, so 0 is clamped).
func haltonOffset(nObs int) int {
	off := (1 + nObs*17) % 1000
	if off == 0 {
		off = 1
	}
	return off
}

// scorer evaluates the hyper-marginalized acquisition over the
// surrogate ensemble. The models are only read, so one scorer serves
// many goroutines, each with its own scoreBuf.
type scorer struct {
	models []*gp.GP
	prior  func([]float64) float64 // Options.PriorMean; nil is the zero prior
	acq    Acquisition
	bestY  float64
	found  Score // the scores behind the search's choice, set by maximize
}

// scoreBuf is one goroutine's scoring scratch: one gp.BlockScratch,
// which the models take in turn, makes every block query
// allocation-free; m0 holds the block's prior means, and mu/s2 hold its
// posteriors model-major ([model*gp.Block+lane]).
type scoreBuf struct {
	scratch     gp.BlockScratch
	m0          [gp.Block]float64
	mu, s2      []float64
	mus, sigmas []float64 // one lane's posteriors across the models
}

func (s *scorer) newBuf() *scoreBuf {
	m := len(s.models)
	return &scoreBuf{
		mu:     make([]float64, m*gp.Block),
		s2:     make([]float64, m*gp.Block),
		mus:    make([]float64, m),
		sigmas: make([]float64, m),
	}
}

// scoreBlock scores 1..gp.Block points, out[l] for us[l]. The prior
// mean is evaluated once per point and shared by every model; each
// model answers the whole block against its one factor (a full block
// in one wide triangular solve where linalg runs the vector kernel).
// Each lane is bitwise the score of that point scored alone (gp's lane
// contract), so the block width never changes a decision.
func (s *scorer) scoreBlock(b *scoreBuf, us [][]float64, out []float64) {
	m0 := b.m0[:len(us)]
	for l, u := range us {
		m0[l] = priorAt(s.prior, u)
	}
	gp.PredictBlockInto(s.models, &b.scratch, us, m0, b.mu, b.s2)
	for l := range us {
		for i := range s.models {
			b.mus[i] = b.mu[i*gp.Block+l]
			b.sigmas[i] = math.Sqrt(b.s2[i*gp.Block+l])
		}
		out[l] = scoreMarginal(s.acq, b.mus, b.sigmas, s.bestY)
	}
}

// scan scores cands[lo:hi] gp.Block candidates at a time and returns
// the first index of the highest score, or -1 when no score exceeds
// -Inf.
func (s *scorer) scan(cands [][]float64, lo, hi int) (int, float64) {
	b := s.newBuf()
	var out [gp.Block]float64
	bi, bs := -1, math.Inf(-1)
	for i := lo; i < hi; i += gp.Block {
		blk := cands[i:min(i+gp.Block, hi)]
		s.scoreBlock(b, blk, out[:len(blk)])
		for l, v := range out[:len(blk)] {
			if v > bs {
				bi, bs = i+l, v
			}
		}
	}
	return bi, bs
}

// argmax scans the candidate grid with up to w workers and returns the
// index and score of the best candidate. Ties break toward the lowest
// index, so the result matches the sequential scan for any w; when no
// score exceeds -Inf the first candidate wins.
func (s *scorer) argmax(cands [][]float64, w int) (int, float64) {
	n := len(cands)
	if n == 0 {
		return -1, math.Inf(-1)
	}
	if w > n {
		w = n
	}
	if w <= 1 || n < 64 {
		bi, bs := s.scan(cands, 0, n)
		return max(bi, 0), bs
	}

	type chunkBest struct {
		idx   int
		score float64
	}
	bests := make([]chunkBest, w)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo := k * n / w
		hi := (k + 1) * n / w
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			idx, score := s.scan(cands, lo, hi)
			bests[k] = chunkBest{idx: idx, score: score}
		}(k, lo, hi)
	}
	wg.Wait()
	bi, bs := 0, math.Inf(-1)
	for _, b := range bests {
		if b.idx >= 0 && (b.score > bs || (b.score == bs && b.idx < bi)) {
			bi, bs = b.idx, b.score
		}
	}
	return bi, bs
}

// parallelFor runs fn(i) for every i in [0, n) across up to w
// goroutines. Each index must write only to its own slot of any shared
// output, which keeps results independent of scheduling order.
func parallelFor(w, n int, fn func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo := k * n / w
		hi := (k + 1) * n / w
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
