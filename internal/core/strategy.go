// Package core implements the paper's contribution: automatic
// configuration of a distributed stream processor. It provides the
// four optimization strategies of §V (pla, ipla, bo, ibo), the
// parameter-set variants of §V-D (h, h+bs+bp, bs+bp+cc), and the
// experimental protocol (optimization passes, zero-performance early
// stopping, best-configuration re-runs).
package core

import (
	"time"

	"stormtune/internal/storm"
)

// Strategy proposes configurations to evaluate, one per optimization
// step, and learns from the measured results.
type Strategy interface {
	// Name identifies the strategy ("pla", "bo", …).
	Name() string
	// Next returns the next configuration to measure; ok is false when
	// the strategy has nothing more to propose.
	Next() (cfg storm.Config, ok bool)
	// Observe feeds the measured result for a configuration returned by
	// Next back into the strategy.
	Observe(cfg storm.Config, res storm.Result)
	// DecisionTime reports how long the last Next call spent choosing
	// (the Figure 7 metric).
	DecisionTime() time.Duration
}

// BatchStrategy is a Strategy that can propose several configurations
// at once for concurrent trial deployments. Observe must accept the
// batch's results in any order.
type BatchStrategy interface {
	Strategy
	// NextBatch returns up to q configurations to measure concurrently;
	// ok is false when the strategy has nothing more to propose.
	NextBatch(q int) (cfgs []storm.Config, ok bool)
}

// RunRecord is one completed optimization step.
type RunRecord struct {
	Step     int
	Config   storm.Config
	Result   storm.Result
	Decision time.Duration
}

// TuneResult is one optimization pass.
type TuneResult struct {
	Strategy string
	Records  []RunRecord
	// BestStep is the 1-based step at which the best throughput was
	// first measured; 0 if no successful run.
	BestStep int
}

// Best returns the record with the highest throughput; ok is false if
// every run failed.
func (t TuneResult) Best() (RunRecord, bool) {
	bi := -1
	for i, r := range t.Records {
		if r.Result.Failed {
			continue
		}
		if bi < 0 || r.Result.Throughput > t.Records[bi].Result.Throughput {
			bi = i
		}
	}
	if bi < 0 {
		return RunRecord{}, false
	}
	return t.Records[bi], true
}

// BestSoFar returns the running maximum of throughput after each step —
// the convergence trace Figures 6 and 8b plot.
func (t TuneResult) BestSoFar() []float64 {
	out := make([]float64, len(t.Records))
	best := 0.0
	for i, r := range t.Records {
		if !r.Result.Failed && r.Result.Throughput > best {
			best = r.Result.Throughput
		}
		out[i] = best
	}
	return out
}

// MeanDecisionSeconds averages the per-step decision time, the paper's
// scalability measure.
func (t TuneResult) MeanDecisionSeconds() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	var sum time.Duration
	for _, r := range t.Records {
		sum += r.Decision
	}
	return sum.Seconds() / float64(len(t.Records))
}

// nextBatch pulls up to q configurations from the strategy, using its
// native batch interface when available, and reports the total decision
// time spent assembling the batch.
func nextBatch(strat Strategy, q int) ([]storm.Config, time.Duration, bool) {
	if bs, ok := strat.(BatchStrategy); ok {
		cfgs, ok := bs.NextBatch(q)
		return cfgs, strat.DecisionTime(), ok
	}
	var cfgs []storm.Config
	var dec time.Duration
	for i := 0; i < q; i++ {
		cfg, ok := strat.Next()
		if !ok {
			break
		}
		dec += strat.DecisionTime()
		cfgs = append(cfgs, cfg)
	}
	return cfgs, dec, len(cfgs) > 0
}
