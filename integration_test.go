package stormtune_test

import (
	"context"
	"testing"

	"stormtune"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// TestEndToEndDeterminism runs the whole stack twice with the same
// seeds — topology generation, simulation noise, optimizer — and
// demands identical outcomes.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (float64, []int) {
		top := topo.BuildSynthetic("small", topo.Condition{TimeImbalance: 1}, 7)
		ev := storm.NewFluidSim(top, cluster.Paper(), storm.SinkTuples, 9)
		strat := core.NewBO(top, cluster.Paper(), storm.DefaultSyntheticConfig(top, 1),
			core.BOOptions{Seed: 5})
		sess := core.NewSession(strat, core.AsBackend(ev), core.SessionOptions{MaxSteps: 12})
		tr, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		best, ok := tr.Best()
		if !ok {
			t.Fatal("no best")
		}
		return best.Result.Throughput, best.Config.NormalizedHints()
	}
	y1, h1 := run()
	y2, h2 := run()
	if y1 != y2 {
		t.Fatalf("non-deterministic throughput: %v vs %v", y1, y2)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("non-deterministic hints: %v vs %v", h1, h2)
		}
	}
}

// TestStrategiesRespectEvaluatorContract checks that every strategy
// family produces configurations every evaluator accepts, across
// conditions — the cross-module contract the experiments rely on.
func TestStrategiesRespectEvaluatorContract(t *testing.T) {
	spec := cluster.Small()
	for _, cond := range topo.Conditions() {
		top := topo.BuildSynthetic("small", cond, 2)
		template := storm.DefaultSyntheticConfig(top, 1)
		evals := []storm.Evaluator{
			storm.NewFluidSim(top, spec, storm.SinkTuples, 1),
			storm.NewBatchDES(top, spec, storm.SinkTuples),
		}
		for _, name := range core.StrategySet {
			factory, err := core.MakeFactory(name, top, spec, template, 1, core.BOOptions{})
			if err != nil {
				t.Fatal(err)
			}
			strat := factory(0)
			for step := 0; step < 3; step++ {
				cfg, ok := strat.Next()
				if !ok {
					break
				}
				if err := cfg.Validate(top.N()); err != nil {
					t.Fatalf("%s/%s: %v", cond.Label(), name, err)
				}
				for _, ev := range evals {
					r := ev.Run(cfg, step)
					strat.Observe(cfg, r)
				}
			}
		}
	}
}

// TestParallelRerunsDeterministic ensures the concurrent best-config
// re-runs produce the same summary as a sequential execution would
// (noise keyed by run index, not scheduling order).
func TestParallelRerunsDeterministic(t *testing.T) {
	top := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	ev := stormtune.NewFluidSim(top, stormtune.PaperCluster(), stormtune.SinkTuples, 3)
	p := stormtune.DefaultProtocol()
	p.Steps, p.Passes, p.BestReruns = 4, 1, 16
	factory := func(int) stormtune.Strategy {
		return stormtune.NewIPLA(top, stormtune.DefaultSyntheticConfig(top, 1))
	}
	a := stormtune.RunProtocol(stormtune.AsBackend(ev), factory, p)
	b := stormtune.RunProtocol(stormtune.AsBackend(ev), factory, p)
	if a.Summary != b.Summary {
		t.Fatalf("parallel reruns nondeterministic: %+v vs %+v", a.Summary, b.Summary)
	}
}

// TestIBOHintsFollowWeights verifies the informed decoding: with equal
// multipliers, deeper nodes (larger weights) receive larger hints.
func TestIBOHintsFollowWeights(t *testing.T) {
	top := topo.BuildSynthetic("medium", topo.Condition{}, 1)
	weights := top.BaseWeights()
	strat := core.NewBO(top, cluster.Paper(), storm.DefaultSyntheticConfig(top, 1),
		core.BOOptions{Set: core.InformedHints, Seed: 1})
	// Sample several suggestions and check rank correlation between
	// weights and hints is positive on average (multipliers vary, but
	// weights set the scale).
	agree, total := 0, 0
	for s := 0; s < 5; s++ {
		cfg, _ := strat.Next()
		strat.Observe(cfg, storm.Result{Throughput: 1})
		for i := 0; i < top.N(); i++ {
			for j := i + 1; j < top.N(); j++ {
				if weights[i] == weights[j] {
					continue
				}
				total++
				if (weights[i] > weights[j]) == (cfg.Hints[i] >= cfg.Hints[j]) {
					agree++
				}
			}
		}
	}
	if total == 0 || float64(agree)/float64(total) < 0.6 {
		t.Fatalf("informed hints poorly correlated with weights: %d/%d", agree, total)
	}
}
