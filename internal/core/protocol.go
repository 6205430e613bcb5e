package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"stormtune/internal/cluster"
	"stormtune/internal/stats"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// Protocol captures the experimental procedure of §V-A: run the
// optimizer for a step budget (twice, keeping the better pass, "given
// that our approach is probabilistic"), stop pla-style strategies after
// three consecutive zero-performance runs, then re-run the best
// configuration 30 times and report min/avg/max. Each pass evaluates
// its trials one at a time (Session.Run), as the paper did.
type Protocol struct {
	// Steps is the evaluation budget per pass (60 in the paper; 180 for
	// bo180).
	Steps int
	// Passes is the number of independent optimization passes (2).
	Passes int
	// BestReruns is how often the winning configuration is re-measured
	// (30).
	BestReruns int
	// StopAfterZeros stops a pass after this many consecutive
	// zero-performance runs; 0 disables (used for bo). The paper uses 3
	// for the linear strategies.
	StopAfterZeros int
	// Seed decorrelates passes and noise.
	Seed int64
	// Retry governs lost evaluations within each pass (see
	// SessionOptions.Retry); the zero value never retries.
	Retry RetryPolicy
	// TrialTimeout bounds each evaluation attempt; zero disables.
	TrialTimeout time.Duration
	// Observer, when set, receives each pass's session events.
	Observer Observer
}

// DefaultProtocol returns the paper's settings.
func DefaultProtocol() Protocol {
	return Protocol{Steps: 60, Passes: 2, BestReruns: 30, StopAfterZeros: 3, Seed: 1}
}

// StrategyFactory builds a fresh strategy for a pass; pass numbering
// starts at 0 and should vary the strategy's seed.
type StrategyFactory func(pass int) Strategy

// Outcome aggregates a full protocol execution for one strategy.
type Outcome struct {
	Strategy string
	// Passes holds each optimization pass.
	Passes []TuneResult
	// BestPass indexes the pass whose best run won.
	BestPass int
	// BestConfig is the winning configuration.
	BestConfig storm.Config
	// Summary is the min/avg/max over the 30 re-runs of BestConfig.
	Summary stats.Summary
	// RerunSamples holds the raw re-run measurements (for t-tests).
	RerunSamples []float64
	// StepsToBest is BestStep per pass (Figure 5 plots min/avg/max over
	// passes).
	StepsToBest []int
	// MeanDecisionSec is the average optimizer decision time per pass
	// (Figure 7).
	MeanDecisionSec []float64
}

// RunProtocol executes the protocol for one strategy family against a
// backend (wrap a simulator with AsBackend).
func RunProtocol(bk Backend, factory StrategyFactory, p Protocol) Outcome {
	out, _ := RunProtocolContext(context.Background(), bk, factory, p)
	return out
}

// RunProtocolContext executes the protocol with cancellation: each pass
// runs as a tuning session honoring ctx, and a cancelled protocol
// returns the passes (and partial pass) completed so far together with
// ctx's error. The re-runs of the winning configuration are skipped on
// cancellation; a re-run whose evaluation is lost contributes a zero
// sample (the passes themselves retry per Protocol.Retry).
func RunProtocolContext(ctx context.Context, bk Backend, factory StrategyFactory, p Protocol) (Outcome, error) {
	if p.Steps <= 0 {
		p.Steps = 60
	}
	if p.Passes <= 0 {
		p.Passes = 2
	}
	if p.BestReruns <= 0 {
		p.BestReruns = 30
	}
	out := Outcome{BestPass: -1}
	bestThroughput := -1.0
	for pass := 0; pass < p.Passes; pass++ {
		strat := factory(pass)
		if out.Strategy == "" {
			out.Strategy = strat.Name()
		}
		runOffset := pass * (p.Steps + p.BestReruns + 1000)
		sess := NewSession(strat, bk, SessionOptions{
			MaxSteps:       p.Steps,
			StopAfterZeros: p.StopAfterZeros,
			RunOffset:      runOffset,
			Retry:          p.Retry,
			TrialTimeout:   p.TrialTimeout,
			Observer:       p.Observer,
		})
		tr, err := sess.Run(ctx)
		out.Passes = append(out.Passes, tr)
		out.StepsToBest = append(out.StepsToBest, tr.BestStep)
		out.MeanDecisionSec = append(out.MeanDecisionSec, tr.MeanDecisionSeconds())
		if best, ok := tr.Best(); ok && best.Result.Throughput > bestThroughput {
			bestThroughput = best.Result.Throughput
			out.BestPass = pass
			out.BestConfig = best.Config
		}
		if err != nil {
			return out, err
		}
	}
	if out.BestPass < 0 || ctx.Err() != nil {
		return out, ctx.Err()
	}
	// Re-run the winning configuration. Both simulators are pure per
	// Run call, so the re-runs fan out across cores; results stay
	// deterministic because the noise draw depends only on (config,
	// run index).
	vals := make([]float64, p.BestReruns)
	finished := make([]bool, p.BestReruns)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < p.BestReruns; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Re-runs honor the same retry policy as the passes; a
			// re-run lost past the retry budget contributes a zero
			// sample, but one interrupted by cancellation contributes
			// nothing — phantom zeros would corrupt the summary.
			tr := Trial{ID: -1, Config: out.BestConfig, RunIndex: 1_000_000 + i, Timeout: p.TrialTimeout}
			res, _, ok := retryRun(ctx, bk, tr, p.Retry, nil)
			if ok {
				vals[i], finished[i] = res.Throughput, true
			}
		}(i)
	}
	wg.Wait()
	samples := vals[:0:0]
	for i, ok := range finished {
		if ok {
			samples = append(samples, vals[i])
		}
	}
	if len(samples) > 0 {
		out.Summary = stats.Summarize(samples)
	}
	out.RerunSamples = samples
	return out, ctx.Err()
}

// StrategySet names the strategy families of Figure 4.
var StrategySet = []string{"pla", "bo", "ipla", "ibo"}

// MakeFactory builds the named strategy family for a synthetic
// topology experiment.
func MakeFactory(name string, t *topo.Topology, spec cluster.Spec, template storm.Config, seed int64, opt BOOptions) (StrategyFactory, error) {
	switch name {
	case "pla":
		return func(int) Strategy { return NewPLA(t, template) }, nil
	case "ipla":
		return func(int) Strategy { return NewIPLA(t, template) }, nil
	case "bo", "bo180":
		return func(pass int) Strategy {
			o := opt
			o.Set = Hints
			o.Seed = seed + int64(pass)*7919
			return NewBO(t, spec, template, o)
		}, nil
	case "ibo":
		return func(pass int) Strategy {
			o := opt
			o.Set = InformedHints
			o.Seed = seed + int64(pass)*7919
			return NewBO(t, spec, template, o)
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", name)
	}
}
