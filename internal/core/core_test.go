package core

import (
	"context"
	"testing"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

func testTopo() *topo.Topology {
	return topo.MustNew("t",
		[]topo.Node{
			{Name: "s", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "a", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "b", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "c", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
}

func testEval(t *topo.Topology) *storm.FluidSim {
	spec := cluster.Spec{Machines: 8, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 16, ThrashTasksPerCore: 4}
	f := storm.NewFluidSim(t, spec, storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	return f
}

func fastBOOpts() BOOptions {
	return BOOptions{Opt: bo.Options{Knobs: bo.Knobs{Candidates: 120, HyperSamples: 2, LocalSearchIters: 4}}}
}

// runPass drives one in-process session of steps evaluations of ev:
// sequentially for q ≤ 1, in constant-liar barrier batches of q
// otherwise, stopping after stopAfterZeros consecutive zero-performance
// runs when positive.
func runPass(t testing.TB, ev storm.Evaluator, strat Strategy, steps, q, stopAfterZeros int) TuneResult {
	t.Helper()
	s := NewSession(strat, AsBackend(ev), SessionOptions{MaxSteps: steps, StopAfterZeros: stopAfterZeros})
	res, err := s.RunBatch(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPLAUniformAscent(t *testing.T) {
	tp := testTopo()
	p := NewPLA(tp, storm.DefaultSyntheticConfig(tp, 1))
	for step := 1; step <= 3; step++ {
		cfg, ok := p.Next()
		if !ok {
			t.Fatal("pla exhausted early")
		}
		for i, h := range cfg.Hints {
			if h != step {
				t.Fatalf("step %d hint[%d] = %d", step, i, h)
			}
		}
	}
	if p.DecisionTime() != 0 {
		t.Fatal("pla decision time should be ~0")
	}
}

func TestIPLAWeightedAscent(t *testing.T) {
	tp := testTopo()
	p := NewIPLA(tp, storm.DefaultSyntheticConfig(tp, 1))
	cfg, _ := p.Next()
	// Weights: s=1, a=1, b=1, c=2 → k=1 hints {1,1,1,2}.
	want := []int{1, 1, 1, 2}
	for i := range want {
		if cfg.Hints[i] != want[i] {
			t.Fatalf("k=1 hints = %v, want %v", cfg.Hints, want)
		}
	}
	cfg, _ = p.Next()
	if cfg.Hints[3] != 4 {
		t.Fatalf("k=2 deep hint = %d, want 4", cfg.Hints[3])
	}
}

func TestScaleWeightsFloorsAtOne(t *testing.T) {
	h := ScaleWeights([]float64{0.2, 1, 3}, 1)
	if h[0] != 1 || h[1] != 1 || h[2] != 3 {
		t.Fatalf("scaled = %v", h)
	}
}

func TestTuneStopsAfterConsecutiveZeros(t *testing.T) {
	tp := testTopo()
	spec := cluster.Spec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 4, ThrashTasksPerCore: 4}
	f := storm.NewFluidSim(tp, spec, storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	// 4 nodes × hint k tasks; capacity 8 → fails from k=3 on.
	res := runPass(t, f, NewPLA(tp, storm.DefaultSyntheticConfig(tp, 1)), 60, 1, 3)
	if len(res.Records) >= 60 {
		t.Fatalf("pla should stop early, ran %d steps", len(res.Records))
	}
	// Last three records are failures.
	n := len(res.Records)
	for _, r := range res.Records[n-3:] {
		if !r.Result.Failed {
			t.Fatalf("expected trailing failures, got %+v", r.Result)
		}
	}
	if best, ok := res.Best(); !ok || best.Result.Throughput <= 0 {
		t.Fatalf("best = %+v, ok=%v", best, ok)
	}
}

func TestTuneRecordsBestStep(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	res := runPass(t, f, NewPLA(tp, storm.DefaultSyntheticConfig(tp, 1)), 20, 1, 3)
	if res.BestStep <= 0 || res.BestStep > 20 {
		t.Fatalf("best step = %d", res.BestStep)
	}
	trace := res.BestSoFar()
	if len(trace) != len(res.Records) {
		t.Fatalf("trace length mismatch")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i] < trace[i-1] {
			t.Fatalf("best-so-far must be monotone: %v", trace)
		}
	}
}

func TestBOStrategyImprovesOverInitial(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	strat := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), fastBOOpts())
	res := runPass(t, f, strat, 25, 1, 0)
	if len(res.Records) != 25 {
		t.Fatalf("ran %d steps", len(res.Records))
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("no successful run")
	}
	first := res.Records[0].Result.Throughput
	if best.Result.Throughput < first {
		t.Fatalf("optimization should not end below its start: %v vs %v", best.Result.Throughput, first)
	}
	if _, ok := strat.BestConfig(); !ok {
		t.Fatal("BestConfig unavailable after observations")
	}
}

func TestBOStrategyDecodesValidConfigs(t *testing.T) {
	tp := testTopo()
	spec := cluster.Small()
	for _, set := range []ParamSet{Hints, HintsBatch, BatchCC, InformedHints} {
		o := fastBOOpts()
		o.Set = set
		strat := NewBO(tp, spec, storm.DefaultSyntheticConfig(tp, 2), o)
		for i := 0; i < 6; i++ {
			cfg, ok := strat.Next()
			if !ok {
				t.Fatalf("set %d exhausted", set)
			}
			if err := cfg.Validate(tp.N()); err != nil {
				t.Fatalf("set %d produced invalid config: %v", set, err)
			}
			strat.Observe(cfg, storm.Result{Throughput: float64(i)})
		}
	}
}

func TestBOStrategyBatchCCKeepsHints(t *testing.T) {
	tp := testTopo()
	o := fastBOOpts()
	o.Set = BatchCC
	template := storm.DefaultSyntheticConfig(tp, 11)
	strat := NewBO(tp, cluster.Small(), template, o)
	cfg, _ := strat.Next()
	for i, h := range cfg.Hints {
		if h != 11 {
			t.Fatalf("bs-bp-cc must keep template hints, hint[%d]=%d", i, h)
		}
	}
	if cfg.BatchSize == template.BatchSize && cfg.BatchParallelism == template.BatchParallelism &&
		cfg.WorkerThreads == template.WorkerThreads {
		// Extremely unlikely unless decoding is broken; the space spans
		// orders of magnitude.
		t.Fatal("bs-bp-cc did not vary any searched parameter")
	}
}

func TestTuneBatchRespectsBudgetAndSteps(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	strat := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), fastBOOpts())
	res := runPass(t, f, strat, 10, 4, 0)
	if len(res.Records) != 10 {
		t.Fatalf("ran %d steps, want exactly the 10-step budget", len(res.Records))
	}
	for i, r := range res.Records {
		if r.Step != i+1 {
			t.Fatalf("record %d has step %d", i, r.Step)
		}
	}
	if strat.opt.N() != 10 {
		t.Fatalf("optimizer saw %d observations, want 10", strat.opt.N())
	}
}

func TestTuneBatchDeterministic(t *testing.T) {
	run := func() TuneResult {
		tp := testTopo()
		f := testEval(tp)
		strat := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), fastBOOpts())
		return runPass(t, f, strat, 12, 3, 0)
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Result.Throughput != b.Records[i].Result.Throughput {
			t.Fatalf("step %d throughput differs: %v vs %v", i+1,
				a.Records[i].Result.Throughput, b.Records[i].Result.Throughput)
		}
	}
}

// TestTuneBatchRegretParity checks the batch engine gives up at most
// 10% of the sequential optimizer's best objective for the same budget.
func TestTuneBatchRegretParity(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	budget := 24
	seq := runPass(t, f, NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), fastBOOpts()), budget, 1, 0)
	seqBest, ok := seq.Best()
	if !ok {
		t.Fatal("sequential run found nothing")
	}
	for _, q := range []int{2, 4} {
		strat := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), fastBOOpts())
		res := runPass(t, f, strat, budget, q, 0)
		best, ok := res.Best()
		if !ok {
			t.Fatalf("q=%d found nothing", q)
		}
		if best.Result.Throughput < seqBest.Result.Throughput*0.9 {
			t.Fatalf("q=%d best %v below 90%% of sequential %v",
				q, best.Result.Throughput, seqBest.Result.Throughput)
		}
	}
}

func TestTuneBatchStopsAfterZeros(t *testing.T) {
	tp := testTopo()
	spec := cluster.Spec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 4, ThrashTasksPerCore: 4}
	f := storm.NewFluidSim(tp, spec, storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	// PLA has no NextBatch; the batch driver assembles batches via Next and
	// must still honor the zero-performance stopping rule.
	res := runPass(t, f, NewPLA(tp, storm.DefaultSyntheticConfig(tp, 1)), 60, 2, 3)
	if len(res.Records) >= 60 {
		t.Fatalf("batch pla should stop early, ran %d steps", len(res.Records))
	}
}

func TestBOStrategyObserveOutOfOrder(t *testing.T) {
	tp := testTopo()
	strat := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), fastBOOpts())
	cfgs, ok := strat.NextBatch(3)
	if !ok || len(cfgs) != 3 {
		t.Fatalf("NextBatch = %d, %v", len(cfgs), ok)
	}
	// Feed results back in reverse: every pending suggestion must be
	// retired against its own configuration.
	for i := len(cfgs) - 1; i >= 0; i-- {
		strat.Observe(cfgs[i], storm.Result{Throughput: float64(100 + i)})
	}
	if len(strat.pending) != 0 {
		t.Fatalf("pending not drained: %d left", len(strat.pending))
	}
	if strat.opt.N() != 3 {
		t.Fatalf("optimizer saw %d observations", strat.opt.N())
	}
}

func TestRunProtocolShape(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	p := Protocol{Steps: 10, Passes: 2, BestReruns: 5, StopAfterZeros: 3, Seed: 1}
	factory, err := MakeFactory("pla", tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), 1, fastBOOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := RunProtocol(AsBackend(f), factory, p)
	if out.Strategy != "pla" {
		t.Fatalf("strategy = %s", out.Strategy)
	}
	if len(out.Passes) != 2 || len(out.StepsToBest) != 2 {
		t.Fatalf("want 2 passes, got %d", len(out.Passes))
	}
	if out.Summary.N != 5 {
		t.Fatalf("summary over %d reruns, want 5", out.Summary.N)
	}
	if out.Summary.Min > out.Summary.Mean || out.Summary.Mean > out.Summary.Max {
		t.Fatalf("summary ordering broken: %+v", out.Summary)
	}
	if out.BestConfig.Hints == nil {
		t.Fatal("no best config")
	}
}

func TestMakeFactoryUnknown(t *testing.T) {
	tp := testTopo()
	if _, err := MakeFactory("sgd", tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), 1, BOOptions{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestMakeFactoryAllStrategies(t *testing.T) {
	tp := testTopo()
	for _, name := range StrategySet {
		factory, err := MakeFactory(name, tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), 1, fastBOOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := factory(0)
		cfg, ok := s.Next()
		if !ok {
			t.Fatalf("%s: no first config", name)
		}
		if err := cfg.Validate(tp.N()); err != nil {
			t.Fatalf("%s: invalid first config: %v", name, err)
		}
	}
}

func TestBOPassesUseDifferentSeeds(t *testing.T) {
	tp := testTopo()
	factory, err := MakeFactory("bo", tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), 1, fastBOOpts())
	if err != nil {
		t.Fatal(err)
	}
	a := factory(0)
	b := factory(1)
	ca, _ := a.Next()
	cb, _ := b.Next()
	same := true
	for i := range ca.Hints {
		if ca.Hints[i] != cb.Hints[i] {
			same = false
		}
	}
	if same && ca.MaxTasks == cb.MaxTasks {
		t.Fatal("different passes should explore differently")
	}
}
