package stormtune

import (
	"context"

	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// Re-exported model types. Aliases keep the internal packages as the
// single source of truth while giving library users one import path.
type (
	// Topology is a Storm/Trident operator DAG.
	Topology = topo.Topology
	// Node is one operator (spout or bolt).
	Node = topo.Node
	// Edge connects operators with a grouping strategy.
	Edge = topo.Edge
	// Condition is one cell of the synthetic 2×2 grid (time imbalance ×
	// contention).
	Condition = topo.Condition
	// ClusterSpec describes the simulated hardware.
	ClusterSpec = cluster.Spec
	// Config carries the Table I configuration parameters.
	Config = storm.Config
	// Result is one measurement run.
	Result = storm.Result
	// Failure classifies a failed run: a configuration the scheduler
	// could not place (FailurePlacement) is a valid zero-performance
	// measurement, while a lost measurement (FailureEvaluation) is a
	// pessimistic stand-in recorded after the retry budget is spent.
	Failure = storm.Failure
	// Evaluator is the black-box objective (simulated cluster). Tuning
	// sessions consume the context-aware Backend contract instead — wrap
	// an Evaluator with AsBackend.
	Evaluator = storm.Evaluator
	// Metric selects the throughput definition.
	Metric = storm.Metric
	// Strategy is a configuration optimizer (pla, ipla, bo, ibo).
	Strategy = core.Strategy
	// BatchStrategy is a Strategy that proposes several configurations
	// at once for concurrent trial deployments (the BO strategies
	// implement it via constant-liar batch suggestion).
	BatchStrategy = core.BatchStrategy
	// Protocol is the paper's experimental procedure.
	Protocol = core.Protocol
	// Outcome aggregates a protocol execution.
	Outcome = core.Outcome
	// TuneResult is a single optimization pass.
	TuneResult = core.TuneResult
	// BOOptions configure the Bayesian strategies.
	BOOptions = core.BOOptions
	// ParamSet selects which parameters the Bayesian optimizer
	// searches.
	ParamSet = core.ParamSet
)

// Node kinds and groupings.
const (
	Spout   = topo.Spout
	Bolt    = topo.Bolt
	Shuffle = topo.Shuffle
	Fields  = topo.Fields
)

// Failure classifications.
const (
	// FailureNone marks a successful run.
	FailureNone = storm.FailureNone
	// FailurePlacement marks an unplaceable configuration (a valid
	// zero-performance measurement).
	FailurePlacement = storm.FailurePlacement
	// FailureTimeout marks a run that never reached steady state.
	FailureTimeout = storm.FailureTimeout
	// FailureEvaluation marks a permanently lost measurement, recorded
	// pessimistically after the retry budget was spent.
	FailureEvaluation = storm.FailureEvaluation
)

// FailedResult builds the pessimistic observation a permanently failed
// trial records; custom Report-driven callers can use it to feed a
// lost measurement back explicitly.
func FailedResult(f Failure, msg string) Result { return storm.FailedResult(f, msg) }

// Throughput metrics.
const (
	// SinkTuples counts tuples/s arriving at sinks (the synthetic
	// experiments' axis).
	SinkTuples = storm.SinkTuples
	// SourceTuples counts ingested tuples/s (the Sundog axis).
	SourceTuples = storm.SourceTuples
)

// Parameter sets of §V-D.
const (
	Hints         = core.Hints
	HintsBatch    = core.HintsBatch
	BatchCC       = core.BatchCC
	InformedHints = core.InformedHints
)

// NewTopology validates and constructs a topology.
func NewTopology(name string, nodes []Node, edges []Edge) (*Topology, error) {
	return topo.New(name, nodes, edges)
}

// Sundog builds the real-world entity-ranking topology of Figure 2.
func Sundog() *Topology { return topo.Sundog() }

// BuildSynthetic generates one of the paper's synthetic topologies
// ("small", "medium", "large") under a condition.
func BuildSynthetic(size string, cond Condition, seed int64) *Topology {
	return topo.BuildSynthetic(size, cond, seed)
}

// PaperCluster returns the evaluation cluster of §IV-C (80 machines,
// 320 cores).
func PaperCluster() ClusterSpec { return cluster.Paper() }

// SmallCluster returns a laptop-scale cluster for experimentation.
func SmallCluster() ClusterSpec { return cluster.Small() }

// NewFluidSim builds the fast steady-state evaluator.
func NewFluidSim(t *Topology, spec ClusterSpec, metric Metric, noiseSeed int64) Evaluator {
	return storm.NewFluidSim(t, spec, metric, noiseSeed)
}

// NewBatchDES builds the discrete-event batch-pipeline evaluator.
func NewBatchDES(t *Topology, spec ClusterSpec, metric Metric) Evaluator {
	return storm.NewBatchDES(t, spec, metric)
}

// Averaged wraps an evaluator so every configuration is measured k
// times and the mean reported — the noise-reduction improvement §VI of
// the paper proposes as future work.
func Averaged(ev Evaluator, k int) Evaluator { return storm.Averaged(ev, k) }

// DefaultConfig returns the manually tuned deployment configuration of
// §V-D with the given uniform parallelism hint.
func DefaultConfig(t *Topology, hint int) Config { return storm.DefaultConfig(t, hint) }

// DefaultSyntheticConfig returns the fixed batching configuration used
// by the synthetic parallelism experiments.
func DefaultSyntheticConfig(t *Topology, hint int) Config {
	return storm.DefaultSyntheticConfig(t, hint)
}

// NewPLA builds the parallel-linear-ascent baseline.
func NewPLA(t *Topology, template Config) Strategy { return core.NewPLA(t, template) }

// NewIPLA builds the informed linear baseline.
func NewIPLA(t *Topology, template Config) Strategy { return core.NewIPLA(t, template) }

// NewBO builds a Bayesian-optimization strategy.
func NewBO(t *Topology, spec ClusterSpec, template Config, opts BOOptions) Strategy {
	return core.NewBO(t, spec, template, opts)
}

// MaxConcurrentTrials reports how many trial deployments needing
// tasksPerTrial task instances a cluster can host at once — the bound
// Tuner.RunBatch and Tuner.RunAsync clamp their q to.
func MaxConcurrentTrials(spec ClusterSpec, tasksPerTrial int) int {
	return spec.MaxConcurrentTrials(tasksPerTrial)
}

// DefaultProtocol returns the paper's experimental protocol (60 steps,
// 2 passes, 30 best-config re-runs).
func DefaultProtocol() Protocol { return core.DefaultProtocol() }

// RunProtocol executes the full protocol for a strategy family against
// a backend (wrap a simulator with AsBackend). Each pass runs as a
// tuning session; see RunProtocolContext for a cancellable variant.
func RunProtocol(b Backend, factory func(pass int) Strategy, p Protocol) Outcome {
	return core.RunProtocol(b, core.StrategyFactory(factory), p)
}

// RunProtocolContext executes the protocol with cancellation: a
// cancelled ctx stops mid-pass and returns the work completed so far
// together with ctx's error.
func RunProtocolContext(ctx context.Context, b Backend, factory func(pass int) Strategy, p Protocol) (Outcome, error) {
	return core.RunProtocolContext(ctx, b, core.StrategyFactory(factory), p)
}
