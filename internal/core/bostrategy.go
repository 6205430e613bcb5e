package core

import (
	"math"
	"time"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// ParamSet selects which Table I parameters the Bayesian optimizer
// searches, mirroring the experiment groups of §V-D.
type ParamSet int

// Parameter sets.
const (
	// Hints searches the per-node parallelism hints plus max-tasks
	// (the §V-A setup).
	Hints ParamSet = iota
	// HintsBatch adds batch size and batch parallelism ("h bs bp").
	HintsBatch
	// BatchCC fixes the hints and searches batch size, batch
	// parallelism and the concurrency parameters ("bs bp cc").
	BatchCC
	// InformedHints searches a float multiplier per node applied to the
	// base-parallelism weights (the ibo setup), plus max-tasks.
	InformedHints
)

// Search-space bounds of the hint-style parameter sets.
const (
	// hintMax bounds each per-node hint.
	hintMax = 64
	// multiplierMax bounds ibo's per-node weight multiplier.
	multiplierMax = 16
)

// BOOptions configure a BO strategy.
type BOOptions struct {
	// Set selects the parameter group (default Hints).
	Set ParamSet
	// Seed drives the optimizer's randomness; two passes use different
	// seeds.
	Seed int64
	// Opt tunes the underlying optimizer; candidate/hyper sample counts
	// mainly trade decision time for quality.
	Opt bo.Options
}

// BOStrategy adapts the Spearmint-style optimizer to the Strategy
// interface: it owns the mapping between the unit-cube search space and
// storm.Config values.
type BOStrategy struct {
	name     string
	template storm.Config
	topology *topo.Topology
	weights  []float64
	set      ParamSet
	space    *bo.Space
	opt      *bo.Optimizer
	pending  []pendingTrial
	lastDur  time.Duration
}

// pendingTrial is a suggested-but-unmeasured configuration: the
// unit-cube point the optimizer proposed and the fingerprint of its
// decoded configuration, used to pair Observe calls with suggestions
// when a batch's results arrive out of order.
type pendingTrial struct {
	u   []float64
	key uint64
}

// NewBO builds a Bayesian-optimization strategy over the given
// parameter set.
func NewBO(t *topo.Topology, spec cluster.Spec, template storm.Config, opts BOOptions) *BOStrategy {
	// max-tasks ranges up to the cluster's task slots, and needs a
	// non-degenerate range even on clusters with fewer slots than the
	// topology has nodes.
	maxTasks := max(spec.TotalTaskSlots(), t.N()+1)
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	var dims []bo.Dim
	name := "bo"
	switch opts.Set {
	case Hints, HintsBatch:
		for _, n := range t.Nodes {
			dims = append(dims, bo.Dim{Name: "hint:" + n.Name, Kind: bo.Int, Min: 1, Max: hintMax})
		}
		dims = append(dims, bo.Dim{Name: "max-tasks", Kind: bo.Int,
			Min: float64(t.N()), Max: float64(maxTasks)})
		if opts.Set == HintsBatch {
			dims = append(dims, batchDims()...)
			name = "bo.h-bs-bp"
		}
	case BatchCC:
		dims = append(dims, batchDims()...)
		dims = append(dims,
			bo.Dim{Name: "worker-threads", Kind: bo.Int, Min: 1, Max: 32},
			bo.Dim{Name: "receiver-threads", Kind: bo.Int, Min: 1, Max: 16},
			bo.Dim{Name: "ackers", Kind: bo.Int, Min: 1, Max: 320, Log: true},
		)
		name = "bo.bs-bp-cc"
	case InformedHints:
		for _, n := range t.Nodes {
			dims = append(dims, bo.Dim{Name: "mult:" + n.Name, Kind: bo.Float, Min: 0.25, Max: multiplierMax})
		}
		dims = append(dims, bo.Dim{Name: "max-tasks", Kind: bo.Int,
			Min: float64(t.N()), Max: float64(maxTasks)})
		name = "ibo"
	}
	space := bo.MustSpace(dims...)
	o := opts.Opt
	o.Seed = opts.Seed
	if len(o.SeedCandidates) == 0 {
		o.SeedCandidates = diagonalSeeds(opts.Set, len(dims), t.N())
	}
	return &BOStrategy{
		name:     name,
		template: template.Clone(),
		topology: t,
		weights:  t.BaseWeights(),
		set:      opts.Set,
		space:    space,
		opt:      bo.NewOptimizer(space, o),
	}
}

// diagonalSeeds builds baseline candidate points for hint-style spaces:
// uniform values across all hint dimensions at several levels crossed
// with several max-tasks levels — the configurations a practitioner
// (or the pla/ipla baselines) would try first. The optimizer only
// selects them when the surrogate predicts improvement.
func diagonalSeeds(set ParamSet, dims, nNodes int) [][]float64 {
	if set == BatchCC {
		// Batch-size × batch-parallelism sweep grid with mid-range
		// concurrency settings.
		var seeds [][]float64
		for _, bs := range []float64{0.2, 0.5, 0.8, 0.99} {
			for _, bp := range []float64{0.2, 0.5, 0.8, 0.99} {
				u := make([]float64, dims)
				u[0], u[1] = bs, bp
				for i := 2; i < dims; i++ {
					u[i] = 0.5
				}
				seeds = append(seeds, u)
			}
		}
		return seeds
	}
	batchLevels := []float64{0.5}
	if dims > nNodes+1 {
		batchLevels = []float64{0.3, 0.6, 0.9, 0.99}
	}
	var seeds [][]float64
	for _, level := range []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 0.95} {
		for _, mt := range []float64{0.15, 0.4, 0.7, 1.0} {
			for _, bl := range batchLevels {
				u := make([]float64, dims)
				for i := 0; i < nNodes; i++ {
					u[i] = level
				}
				u[nNodes] = mt
				for i := nNodes + 1; i < dims; i++ {
					u[i] = bl
				}
				seeds = append(seeds, u)
			}
		}
	}
	return seeds
}

func batchDims() []bo.Dim {
	return []bo.Dim{
		{Name: "batch-size", Kind: bo.Int, Min: 100, Max: 500000, Log: true},
		{Name: "batch-parallelism", Kind: bo.Int, Min: 1, Max: 64},
	}
}

// Name implements Strategy.
func (s *BOStrategy) Name() string { return s.name }

// Next implements Strategy.
func (s *BOStrategy) Next() (storm.Config, bool) {
	cfgs, ok := s.NextBatch(1)
	if !ok {
		return storm.Config{}, false
	}
	return cfgs[0], true
}

// NextBatch implements BatchStrategy: it asks the optimizer for q
// constant-liar suggestions that can be deployed concurrently.
func (s *BOStrategy) NextBatch(q int) ([]storm.Config, bool) {
	if q <= 0 {
		return nil, false
	}
	us := s.opt.SuggestBatch(q)
	s.lastDur = s.opt.LastStepDuration
	cfgs := make([]storm.Config, len(us))
	for i, u := range us {
		cfgs[i] = s.decode(u)
		s.pending = append(s.pending, pendingTrial{u: u, key: cfgs[i].Fingerprint()})
	}
	return cfgs, len(cfgs) > 0
}

// Observe implements Strategy; the objective is measured throughput
// (zero for failed runs, which teaches the GP to avoid the region).
// Results of a batch may arrive in any order: the configuration's
// fingerprint selects the matching pending suggestion, falling back to
// the oldest one.
func (s *BOStrategy) Observe(cfg storm.Config, res storm.Result) {
	if len(s.pending) == 0 {
		return
	}
	idx := 0
	key := cfg.Fingerprint()
	for i, p := range s.pending {
		if p.key == key {
			idx = i
			break
		}
	}
	u := s.pending[idx].u
	s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
	y := res.Throughput
	if res.Failed {
		y = 0
	}
	s.opt.Observe(u, y)
}

// DecisionTime implements Strategy.
func (s *BOStrategy) DecisionTime() time.Duration { return s.lastDur }

// HyperState returns the optimizer's current hyperparameter posterior —
// the slice samples of its latest refit epoch — or nil before the first
// GP fit. Feed it to a later session through RetuneOptions.InitHypers
// (or bo.Options.InitHypers) to skip that session's cold slice-sampling
// burn.
func (s *BOStrategy) HyperState() *bo.HyperState { return s.opt.HyperState() }

// RecordScores makes every later Next and NextBatch keep the
// acquisition values behind its configurations for LastScores (see
// bo.Optimizer.RecordScores).
func (s *BOStrategy) RecordScores() { s.opt.RecordScores() }

// LastScores returns a copy of the acquisition values behind each
// configuration of the most recent Next or NextBatch, nil unless
// RecordScores was called (see bo.Optimizer.LastScores).
func (s *BOStrategy) LastScores() []bo.Score { return append([]bo.Score(nil), s.opt.LastScores()...) }

// BestConfig returns the configuration of the incumbent.
func (s *BOStrategy) BestConfig() (storm.Config, bool) {
	u, _, ok := s.opt.Best()
	if !ok {
		return storm.Config{}, false
	}
	return s.decode(u), true
}

// Encode maps a concrete configuration back to the unit cube — the
// inverse of decode up to integer rounding. A retune session uses it
// to center its trust region on the running incumbent and to warm the
// optimizer with the previous session's measurements.
func (s *BOStrategy) Encode(cfg storm.Config) []float64 {
	n := s.topology.N()
	var vals []float64
	switch s.set {
	case Hints, HintsBatch:
		for i := 0; i < n; i++ {
			vals = append(vals, float64(cfg.Hints[i]))
		}
		vals = append(vals, float64(cfg.MaxTasks))
		if s.set == HintsBatch {
			vals = append(vals, float64(cfg.BatchSize), float64(cfg.BatchParallelism))
		}
	case BatchCC:
		vals = append(vals, float64(cfg.BatchSize), float64(cfg.BatchParallelism),
			float64(cfg.WorkerThreads), float64(cfg.ReceiverThreads), float64(cfg.Ackers))
	case InformedHints:
		for i := 0; i < n; i++ {
			w := s.weights[i]
			if w <= 0 {
				w = 1
			}
			vals = append(vals, float64(cfg.Hints[i])/w)
		}
		vals = append(vals, float64(cfg.MaxTasks))
	}
	return s.space.Encode(vals)
}

// WarmObservation is one (configuration, objective) pair used to warm
// a retune strategy with measurements from the session that produced
// the incumbent.
type WarmObservation struct {
	Config storm.Config `json:"config"`
	Y      float64      `json:"y"`
}

// RetuneOptions bound a conservative retune session's per-step
// movement in the unit cube (see bo.TrustRegion). All fields are
// serializable so a snapshot can reconstruct the exact region. Zero
// values select the defaults.
type RetuneOptions struct {
	// Radius is the initial trust-region half-width (default 0.1).
	Radius float64 `json:"radius,omitempty"`
	// RadiusMin/RadiusMax bound adaptation (defaults 0.02 / 0.5).
	RadiusMin float64 `json:"radiusMin,omitempty"`
	RadiusMax float64 `json:"radiusMax,omitempty"`
	// Grow/Shrink/GrowAfter set the Big/Small adaptation (defaults
	// 1.6 / 0.5 / 2).
	Grow      float64 `json:"grow,omitempty"`
	Shrink    float64 `json:"shrink,omitempty"`
	GrowAfter int     `json:"growAfter,omitempty"`
	// InitHypers seeds the retune optimizer's first hyperparameter
	// epoch with the incumbent session's posterior (see
	// BOStrategy.HyperState), so the episode skips the cold
	// slice-sampling burn and starts from length scales already
	// adapted to the topology's response surface. Nil samples cold.
	InitHypers *bo.HyperState `json:"initHypers,omitempty"`
}

func (ro RetuneOptions) radius() float64 {
	if ro.Radius <= 0 {
		return 0.1
	}
	return ro.Radius
}

// NewRetuneBO builds a conservative retune strategy: a BO strategy
// warm-started with the previous session's measurements and confined
// to a trust region centered on the incumbent. The warm observations
// are fed to the optimizer *before* the region attaches, so seeding
// does not walk the radius; the incumbent is observed last so it is
// the optimizer's Best when history and incumbent tie. The returned
// strategy enters the normal ask/tell loop — snapshot/resume, retry
// policy, Recorder and dashboard all work unchanged.
func NewRetuneBO(t *topo.Topology, spec cluster.Spec, template storm.Config, opts BOOptions,
	incumbent WarmObservation, history []WarmObservation, ro RetuneOptions) *BOStrategy {
	// The incumbent is re-proposed or improved upon, never re-seeded
	// from a cold Latin hypercube.
	opts.Opt.InitialDesign = 1
	opts.Opt.InitHypers = ro.InitHypers
	s := NewBO(t, spec, template, opts)
	s.name += ".retune"
	for _, w := range history {
		s.opt.Observe(s.Encode(w.Config), w.Y)
	}
	center := s.Encode(incumbent.Config)
	s.opt.Observe(center, incumbent.Y)
	tr := &bo.TrustRegion{
		Center: center, Radius: ro.radius(),
		RadiusMin: ro.RadiusMin, RadiusMax: ro.RadiusMax,
		Grow: ro.Grow, Shrink: ro.Shrink, GrowAfter: ro.GrowAfter,
	}
	tr.Baseline(incumbent.Y)
	s.opt.Opts.Trust = tr
	return s
}

// decode maps a unit-cube point to a concrete configuration.
func (s *BOStrategy) decode(u []float64) storm.Config {
	vals := s.space.Decode(u)
	cfg := s.template.Clone()
	n := s.topology.N()
	switch s.set {
	case Hints, HintsBatch:
		cfg.Hints = make([]int, n)
		for i := 0; i < n; i++ {
			cfg.Hints[i] = int(vals[i])
		}
		cfg.MaxTasks = int(vals[n])
		if s.set == HintsBatch {
			cfg.BatchSize = int(vals[n+1])
			cfg.BatchParallelism = int(vals[n+2])
		}
	case BatchCC:
		cfg.BatchSize = int(vals[0])
		cfg.BatchParallelism = int(vals[1])
		cfg.WorkerThreads = int(vals[2])
		cfg.ReceiverThreads = int(vals[3])
		cfg.Ackers = int(vals[4])
	case InformedHints:
		cfg.Hints = make([]int, n)
		for i := 0; i < n; i++ {
			h := int(math.Round(s.weights[i] * vals[i]))
			if h < 1 {
				h = 1
			}
			if h > hintMax*4 {
				h = hintMax * 4
			}
			cfg.Hints[i] = h
		}
		cfg.MaxTasks = int(vals[n])
	}
	return cfg
}
