package bo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"stormtune/internal/sample"
)

// Knobs are the optimizer settings that shape its proposals as plain
// numbers. Session snapshots record them (the JSON tags are the
// snapshot field names), so a resumed run rebuilds the exact same
// optimizer. Zero values select the Spearmint-like defaults.
type Knobs struct {
	// Candidates is the size of the random candidate grid scored by the
	// acquisition each step (default 1000).
	Candidates int `json:"candidates,omitempty"`
	// HyperSamples is the number of slice-sampling hyperparameter draws
	// the acquisition is averaged over (default 6). 1 disables
	// marginalization and uses a MAP fit.
	HyperSamples int `json:"hyperSamples,omitempty"`
	// LocalSearchIters refines the best candidate by coordinate
	// perturbation (default 20).
	LocalSearchIters int `json:"localSearchIters,omitempty"`
	// MaxGPPoints caps the number of observations used to condition the
	// GP; the most recent points are kept (0 = the whole history). The
	// whole history stays exact at every n, so its per-ask cost grows
	// with the run; the window is how to bound the cost of long
	// sessions, as the CLI does with 60.
	MaxGPPoints int `json:"maxGPPoints,omitempty"`
}

// Options tune the optimizer. Zero values select Spearmint-like
// defaults.
type Options struct {
	// InitialDesign is the number of Latin-hypercube seed points before
	// the GP takes over (default max(3, d)).
	InitialDesign int
	// Knobs are the settings a session snapshot records.
	Knobs
	// Acq selects the acquisition function (default EI{}).
	Acq Acquisition
	// Seed seeds the internal RNG (default 1).
	Seed int64
	// SeedCandidates are unit-cube points always included in the
	// acquisition's candidate pool — the standard practice of seeding a
	// tuner with baseline configurations (they are only selected when
	// the model expects improvement there).
	SeedCandidates [][]float64
	// WarmStarts are unit-cube points evaluated before the Latin
	// hypercube, replacing that many points of the InitialDesign budget
	// (at most InitialDesign of them are used) — the transfer-learning
	// warm start: prior incumbents get measured first, and the LHS only
	// fills whatever budget they leave. Runtime-only like Trust: the
	// session-level snapshot reconstructs them on resume.
	WarmStarts [][]float64
	// PriorMean, when set, is an archived-runs prior m₀ on the surrogate
	// mean, in *standardized* objective units (the scale the GP fits
	// after y-standardization, which is also the scale per-donor
	// z-scored historical observations live on). The optimizer
	// evaluates it once per point — each observation when it is first
	// conditioned, each constant-liar fantasy as an ask builds it, each
	// scored candidate or local-search move — and hands the values to
	// the surrogates as data: they condition on residual targets
	// y − m₀(u) and add m₀ back at every query. It must be a pure
	// function of u, safe for concurrent calls, and set before the first
	// Suggest: cached values are reused for the rest of the session.
	// Runtime-only, reconstructed on resume.
	PriorMean func(u []float64) float64
	// SharedSeeds are cross-session seed points pushed in mid-run (a
	// fleet sibling's NewBest); they join the acquisition candidate
	// pool like SeedCandidates. Install via SetSharedSeeds, which also
	// re-ranks the unissued initial design. Runtime-only.
	SharedSeeds [][]float64
	// Workers bounds the goroutines used to score the acquisition
	// candidate grid and to refit the per-hyper-sample GPs (default
	// GOMAXPROCS; 1 forces fully sequential operation). Results are
	// identical for any worker count.
	Workers int
	// Trust, when set, confines every suggestion to a trust region
	// around the current incumbent — conservative (retune) mode. The
	// first suggestion with no data is the region's center itself, and
	// Observe adapts the region (recenter/widen/shrink). Runtime-only,
	// like the other non-scalar options: the session-level snapshot
	// reconstructs it.
	Trust *TrustRegion
	// InitHypers seeds the first refit epoch with an existing
	// hyperparameter posterior (an incumbent session's HyperState), so a
	// retune session reuses the cache its parent already paid for
	// instead of slice-sampling from cold. Runtime-only.
	InitHypers *HyperState
}

func (o Options) withDefaults(d int) Options {
	if o.InitialDesign <= 0 {
		o.InitialDesign = 3
		if d > o.InitialDesign {
			o.InitialDesign = d
		}
		if o.InitialDesign > 10 {
			o.InitialDesign = 10
		}
	}
	if o.Candidates <= 0 {
		o.Candidates = 1000
	}
	if o.HyperSamples <= 0 {
		o.HyperSamples = 6
	}
	if o.LocalSearchIters < 0 {
		o.LocalSearchIters = 0
	} else if o.LocalSearchIters == 0 {
		o.LocalSearchIters = 20
	}
	if o.Acq == nil {
		o.Acq = EI{}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Observation is one completed evaluation: a unit-cube point and the
// measured objective (higher is better).
type Observation struct {
	U []float64 `json:"u"`
	Y float64   `json:"y"`
}

// Optimizer is a sequential model-based optimizer over a Space. It is
// not safe for concurrent use.
type Optimizer struct {
	Space *Space
	Opts  Options

	obs     []Observation
	pending [][]float64 // suggested but not yet observed (conditioned on as constant-liar fantasies)
	rng     *rand.Rand

	// obsM0 caches PriorMean at obs[:len(obsM0)]; see obsPrior.
	obsM0 []float64

	// initQueue holds the full Latin-hypercube initial design, drawn
	// once on the first Suggest so its points are stratified against
	// each other; initNext indexes the next unissued point.
	initQueue [][]float64
	initNext  int

	// cache holds the surrogate ensemble reused across Suggest calls;
	// see modelCache.
	cache modelCache

	// LastStepDuration records how long the most recent Suggest call
	// took; the scalability experiment (Figure 7) reads it.
	LastStepDuration time.Duration

	// scores, once RecordScores has set it, holds the acquisition
	// values behind each point of the most recent Suggest or
	// SuggestBatch. It is nil by default, so an optimizer nobody
	// inspects keeps no scores.
	scores *[]Score
}

// Score is the acquisition value behind one suggested point: the best
// of the candidate grid, and where local search from it ended (the
// point's own score). Both are NaN for a point no acquisition chose.
type Score struct {
	Grid, Search float64
}

// NewOptimizer creates an optimizer over space.
func NewOptimizer(space *Space, opts Options) *Optimizer {
	o := opts.withDefaults(space.D())
	return &Optimizer{
		Space: space,
		Opts:  o,
		rng:   rand.New(rand.NewSource(o.Seed)),
	}
}

// N returns the number of completed observations.
func (opt *Optimizer) N() int { return len(opt.obs) }

// Best returns the incumbent (unit-cube point, objective). ok is false
// before any observation.
func (opt *Optimizer) Best() (u []float64, y float64, ok bool) {
	if len(opt.obs) == 0 {
		return nil, 0, false
	}
	bi := 0
	for i, o := range opt.obs {
		if o.Y > opt.obs[bi].Y {
			bi = i
		}
	}
	return opt.obs[bi].U, opt.obs[bi].Y, true
}

// Suggest proposes the next unit-cube point to evaluate. The first
// Opts.InitialDesign suggestions come from a Latin hypercube; afterwards
// the GP surrogate is fitted and the acquisition maximized over a
// candidate grid plus local search.
func (opt *Optimizer) Suggest() []float64 {
	//lint:wallclock telemetry: decision-time accounting, never a proposal input
	start := time.Now()
	//lint:wallclock telemetry: decision-time accounting, never a proposal input
	defer func() { opt.LastStepDuration = time.Since(start) }()
	opt.resetScores()
	return opt.suggestOne((*Optimizer).maximize)
}

// RecordScores makes every later Suggest and SuggestBatch keep the
// acquisition values behind its points for LastScores.
func (opt *Optimizer) RecordScores() {
	if opt.scores == nil {
		opt.scores = new([]Score)
	}
}

// LastScores returns the acquisition values behind each point the most
// recent Suggest or SuggestBatch returned, in order, NaN for a point no
// acquisition chose (initial design, trust-region center, random
// fallback); nil unless RecordScores was called. The slice is reused
// by the next call.
func (opt *Optimizer) LastScores() []Score {
	if opt.scores == nil {
		return nil
	}
	return *opt.scores
}

// resetScores empties the recorded scores at the start of a call.
func (opt *Optimizer) resetScores() {
	if opt.scores != nil {
		*opt.scores = (*opt.scores)[:0]
	}
}

// suggestOne proposes one point, marks it pending and records its
// acquisition values.
func (opt *Optimizer) suggestOne(search acqSearch) []float64 {
	u, score := opt.propose(search)
	opt.pending = append(opt.pending, u)
	if opt.scores != nil {
		*opt.scores = append(*opt.scores, score)
	}
	return u
}

func (opt *Optimizer) propose(search acqSearch) ([]float64, Score) {
	// Conservative mode: with no data at all, the first proposal is the
	// trust region's center — the incumbent re-measured under current
	// conditions before the search moves anywhere.
	if t := opt.Opts.Trust; t != nil && len(opt.obs)+len(opt.pending) == 0 && len(t.Center) == opt.Space.D() {
		return t.Clamp(t.Center), unscored
	}
	if len(opt.obs)+len(opt.pending) < opt.Opts.InitialDesign && opt.initNext < opt.Opts.InitialDesign {
		// The whole design is drawn in one LHS so points are stratified
		// against each other; hand them out one per call. Warm-start
		// points take the front of the queue and shrink the LHS draw.
		if opt.initQueue == nil {
			opt.initQueue = opt.initialDesign()
		}
		u := opt.confine(opt.initQueue[opt.initNext])
		opt.initNext++
		return u, unscored
	}
	return opt.suggestGP(search)
}

// initialDesign builds the initial-design queue: warm-start points
// first (clamped into the cube, wrong-dimension points dropped), then
// a Latin hypercube over the remaining InitialDesign budget.
func (opt *Optimizer) initialDesign() [][]float64 {
	d := opt.Space.D()
	var queue [][]float64
	for _, u := range opt.Opts.WarmStarts {
		if len(u) != d || len(queue) == opt.Opts.InitialDesign {
			continue
		}
		c := make([]float64, d)
		for j, v := range u {
			c[j] = clamp01(v)
		}
		queue = append(queue, c)
	}
	return append(queue, sample.LatinHypercube(opt.rng, opt.Opts.InitialDesign-len(queue), d)...)
}

// SetSharedSeeds installs cross-session seed points mid-run: they join
// every future acquisition candidate pool, and any seed not already
// issued or observed re-ranks the warm-start pool by taking the next
// unissued slots of the initial design (or the front of WarmStarts if
// the design has not been drawn yet). Call between Suggest/Observe
// turns — the optimizer is not safe for concurrent use.
func (opt *Optimizer) SetSharedSeeds(us [][]float64) {
	d := opt.Space.D()
	clean := make([][]float64, 0, len(us))
	for _, u := range us {
		if len(u) != d {
			continue
		}
		c := make([]float64, d)
		for j, v := range u {
			c[j] = clamp01(v)
		}
		clean = append(clean, c)
	}
	opt.Opts.SharedSeeds = clean
	var fresh [][]float64
	for _, u := range clean {
		if !opt.seen(u) {
			fresh = append(fresh, u)
		}
	}
	if len(fresh) == 0 {
		return
	}
	if opt.initQueue == nil {
		opt.Opts.WarmStarts = append(append([][]float64(nil), fresh...), opt.Opts.WarmStarts...)
		return
	}
	for i := opt.initNext; i < len(opt.initQueue) && len(fresh) > 0; i++ {
		opt.initQueue[i] = fresh[0]
		fresh = fresh[1:]
	}
}

// seen reports whether u was already issued or observed.
func (opt *Optimizer) seen(u []float64) bool {
	for _, o := range opt.obs {
		if sameVec(o.U, u) {
			return true
		}
	}
	for _, p := range opt.pending {
		if sameVec(p, u) {
			return true
		}
	}
	return false
}

// confine clamps a proposal into the trust region, when one is set.
func (opt *Optimizer) confine(u []float64) []float64 {
	if opt.Opts.Trust == nil {
		return u
	}
	return opt.Opts.Trust.Clamp(u)
}

// unscored is the Score of a point no acquisition chose.
var unscored = Score{math.NaN(), math.NaN()}

// suggestGP maximizes the acquisition and returns the point and its
// scores; a degenerate surrogate falls back to a random point.
func (opt *Optimizer) suggestGP(search acqSearch) ([]float64, Score) {
	d := opt.Space.D()
	random := func() ([]float64, Score) {
		return opt.confine(sample.Uniform(opt.rng, 1, d)[0]), unscored
	}

	// Epoch maintenance: slice sampling (the only RNG consumer on the
	// model side) runs only when the refit schedule demands it; between
	// epochs hyperparameters and y-standardization stay frozen so the
	// cached factors remain valid.
	if opt.needRefit() {
		if err := opt.refitEpoch(); err != nil {
			// Degenerate surrogate: fall back to random exploration.
			return random()
		}
	}
	c := &opt.cache

	// Constant-liar conditioning: pending (suggested but unobserved)
	// points enter the conditioning set with a fantasy objective, so a
	// batch of suggestions spreads out instead of collapsing onto the
	// same acquisition maximum (Ginsbourger et al.'s CL heuristic). The
	// lie is standardized with the frozen epoch scale, less the prior
	// mean at the point, and fixed at append time, making retraction an
	// exact inverse.
	var fant []fantasyPoint
	if len(opt.pending) > 0 {
		_, ys, _ := opt.trainingSet()
		if len(ys) > 0 {
			lie := (liarValue(ys) - c.my) / c.sy
			for _, p := range opt.pending {
				fant = append(fant, fantasyPoint{u: p, r: lie - priorAt(opt.Opts.PriorMean, p)})
			}
		}
	}

	// Bring the ensemble to the canonical conditioning state. Windowed
	// sessions (MaxGPPoints) rebuild per ask — a sliding window has no
	// stable prefix to extend — but still reuse the epoch's frozen
	// hypers, so they skip the slice-sampling cost too.
	windowed := opt.Opts.MaxGPPoints > 0 && len(opt.obs) > opt.Opts.MaxGPPoints
	var err error
	if windowed {
		err = opt.rebuildModels(fant)
	} else {
		err = opt.syncModels(fant)
	}
	if err != nil {
		return random()
	}

	_, bestY, _ := opt.bestStandardized(c.my, c.sy)

	// Candidate grid: uniform + Halton + seeds + jittered copies of the
	// incumbent (Spearmint also includes the current best region).
	cands := sample.Uniform(opt.rng, opt.Opts.Candidates/2, d)
	cands = append(cands, sample.HaltonSeq(haltonOffset(len(opt.obs)), opt.Opts.Candidates/4, d)...)
	cands = append(cands, opt.Opts.SeedCandidates...)
	cands = append(cands, opt.Opts.SharedSeeds...)
	if bu, _, ok := opt.Best(); ok {
		for i := 0; i < opt.Opts.Candidates/4; i++ {
			c := make([]float64, d)
			for j := range c {
				c[j] = clamp01(bu[j] + 0.05*opt.rng.NormFloat64())
			}
			cands = append(cands, c)
		}
		// Axis sweeps: the incumbent with one coordinate moved to a
		// fixed level. These give the acquisition visibility of
		// single-parameter changes, which matter in high-dimensional
		// configuration spaces where random candidates are always far
		// from the data.
		for j := 0; j < d; j++ {
			for _, level := range []float64{0.05, 0.3, 0.7, 0.95} {
				c := append([]float64(nil), bu...)
				c[j] = level
				cands = append(cands, c)
			}
		}
	}

	// Conservative mode confines the whole candidate pool — every
	// source above (uniform, Halton, seeds, incumbent jitter, axis
	// sweeps) — into the trust box, so nothing outside it can even be
	// scored.
	if opt.Opts.Trust != nil {
		for i, c := range cands {
			cands[i] = opt.Opts.Trust.Clamp(c)
		}
	}

	if len(cands) == 0 {
		return random()
	}
	sc := &scorer{models: c.models, prior: opt.Opts.PriorMean, acq: opt.Opts.Acq, bestY: bestY, found: unscored}
	return search(opt, sc, cands), sc.found
}

// searchBlock is how many local-search moves are scored per block:
// narrower than the grid scan's gp.Block, because the lanes after the
// first improving move are scored for nothing.
const searchBlock = 4

// acqSearch maximizes the acquisition sc scores over the candidate grid
// cands (non-empty), leaving the scores behind its choice in sc.found.
// maximize is the one production search; tests pass a
// one-candidate-at-a-time oracle in its place.
type acqSearch func(opt *Optimizer, sc *scorer, cands [][]float64) []float64

// maximize returns the best grid candidate refined by coordinate local
// search. A sweep tries 2d moves from the current point — each
// coordinate up, then down, by the step — taking every move that
// improves the score. Moves are scored searchBlock at a time,
// speculatively from the current point: the first improving move of a
// block is taken, the rest of the block (built from a point that is now
// stale) is dropped, and the sweep resumes at the move after it. A move
// onto a point this search has already scored — the start point, a
// step clamped back onto the current point, a step back to where the
// last move came from — is not scored again: its remembered score
// decides it in its turn. That makes exactly the decisions of scoring
// the moves one by one.
func (opt *Optimizer) maximize(sc *scorer, cands [][]float64) []float64 {
	bi, bestScore := sc.argmax(cands, opt.Opts.Workers)
	sc.found.Grid = bestScore
	cur := append([]float64(nil), cands[bi]...)
	moves := 2 * len(cur)
	// Sized for the start point and every move of every sweep, which a
	// search at the default iteration count comes close to.
	seen := make(scoredPoints, 1+opt.Opts.LocalSearchIters*moves)
	seen.add(cur, bestScore)
	b := sc.newBuf()
	var blk [searchBlock][]float64
	var at [searchBlock]int // blk[l] is move at[l]
	var out [searchBlock]float64
	step := 0.08
	for it := 0; it < opt.Opts.LocalSearchIters; it++ {
		improved := false
		for m := 0; m < moves; {
			// Gather the next block of unscored moves. A scored move that
			// does not improve is passed over; one that does (possible
			// only for a lane dropped from an earlier block) ends the
			// block, and is taken unless a lane before it improves.
			nb := 0
			var known []float64
			var knownScore float64
			for ; m < moves && nb < searchBlock; m++ {
				j, dir := m/2, float64(1-2*(m%2))
				trial := append([]float64(nil), cur...)
				trial[j] = clamp01(trial[j] + dir*step)
				trial = opt.confine(trial)
				if v, ok := seen.score(trial); !ok {
					blk[nb], at[nb] = trial, m
					nb++
				} else if v > bestScore {
					known, knownScore = trial, v
					break
				}
			}
			if nb > 0 {
				sc.scoreBlock(b, blk[:nb], out[:nb])
			}
			taken := false
			for l, v := range out[:nb] {
				seen.add(blk[l], v)
				if !taken && v > bestScore {
					bestScore, cur, improved, taken = v, blk[l], true, true
					m = at[l] + 1
				}
			}
			if !taken && known != nil {
				bestScore, cur, improved = knownScore, known, true
				m++
			}
		}
		if !improved {
			step /= 2
			if step < 1e-3 {
				break
			}
		}
	}
	sc.found.Search = bestScore
	return cur
}

// scoredPoints remembers the score of points one local search has
// scored, keyed on a hash of each point's exact bits and confirmed bit
// for bit. A point whose hash another point already holds is not
// remembered, which costs a rescore, never a different decision.
type scoredPoints map[uint64]scoredPoint

type scoredPoint struct {
	u     []float64
	score float64
}

// bitsHash mixes the bit patterns of u's coordinates (FNV-1a over
// 64-bit words).
func bitsHash(u []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range u {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// add remembers u's score; u must not be modified afterwards.
func (s scoredPoints) add(u []float64, v float64) {
	h := bitsHash(u)
	if _, taken := s[h]; !taken {
		s[h] = scoredPoint{u, v}
	}
}

// score returns u's remembered score.
func (s scoredPoints) score(u []float64) (float64, bool) {
	p, ok := s[bitsHash(u)]
	if !ok {
		return 0, false
	}
	for j, v := range p.u {
		if math.Float64bits(v) != math.Float64bits(u[j]) {
			return 0, false
		}
	}
	return p.score, true
}

// trainingSet returns the conditioning data, truncated to MaxGPPoints
// most recent observations if configured, with PriorMean at each point.
func (opt *Optimizer) trainingSet() (xs [][]float64, ys, m0 []float64) {
	lo := 0
	if m := opt.Opts.MaxGPPoints; m > 0 && len(opt.obs) > m {
		lo = len(opt.obs) - m
	}
	obs := opt.obs[lo:]
	xs = make([][]float64, len(obs))
	ys = make([]float64, len(obs))
	for i, o := range obs {
		xs[i] = o.U
		ys[i] = o.Y
	}
	return xs, ys, opt.obsPrior()[lo:]
}

// residuals standardizes ys with (my, sy) and subtracts the prior mean:
// the targets (y − my)/sy − m₀ every surrogate is conditioned on.
func residuals(ys, m0 []float64, my, sy float64) []float64 {
	rs := make([]float64, len(ys))
	for i, y := range ys {
		rs[i] = (y-my)/sy - m0[i]
	}
	return rs
}

// priorAt evaluates the prior mean f at u; a nil f is the zero prior.
func priorAt(f func([]float64) float64, u []float64) float64 {
	if f == nil {
		return 0
	}
	return f(u)
}

// obsPrior returns PriorMean at every observation. Each point is
// evaluated once, the first time it is conditioned; later epochs,
// rebuilds and windows reuse the cached value.
func (opt *Optimizer) obsPrior() []float64 {
	for i := len(opt.obsM0); i < len(opt.obs); i++ {
		opt.obsM0 = append(opt.obsM0, priorAt(opt.Opts.PriorMean, opt.obs[i].U))
	}
	return opt.obsM0
}

func (opt *Optimizer) bestStandardized(my, sy float64) ([]float64, float64, bool) {
	u, y, ok := opt.Best()
	if !ok {
		return nil, math.Inf(-1), false
	}
	return u, (y - my) / sy, true
}

// Observe records the objective value for a previously suggested (or
// externally chosen) unit-cube point.
func (opt *Optimizer) Observe(u []float64, y float64) {
	if len(u) != opt.Space.D() {
		panic(fmt.Sprintf("bo: observe point of dim %d against space of dim %d", len(u), opt.Space.D()))
	}
	opt.obs = append(opt.obs, Observation{U: append([]float64(nil), u...), Y: y})
	if opt.Opts.Trust != nil {
		opt.Opts.Trust.Observe(u, y)
	}
	// Drop the matching pending entry, if any.
	for i, p := range opt.pending {
		if sameVec(p, u) {
			opt.pending = append(opt.pending[:i], opt.pending[i+1:]...)
			break
		}
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	if std < 1e-9 {
		std = 1
	}
	return mean, std
}
