package storm

import (
	"math"
	"runtime"
	"testing"

	"stormtune/internal/cluster"
	"stormtune/internal/topo"
)

// chainTopo builds spout → b1 → b2 with uniform cost.
func chainTopo(cost float64) *topo.Topology {
	return topo.MustNew("chain",
		[]topo.Node{
			{Name: "s", Kind: topo.Spout, TimeUnits: cost, Selectivity: 1, TupleBytes: 100},
			{Name: "b1", Kind: topo.Bolt, TimeUnits: cost, Selectivity: 1, TupleBytes: 100},
			{Name: "b2", Kind: topo.Bolt, TimeUnits: cost, Selectivity: 1, TupleBytes: 100},
		},
		[]topo.Edge{{From: 0, To: 1, Grouping: topo.Shuffle}, {From: 1, To: 2, Grouping: topo.Shuffle}},
	)
}

func testCluster() cluster.Spec {
	return cluster.Spec{
		Machines: 8, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 48, ThrashTasksPerCore: 4,
	}
}

func noNoiseFluid(t *topo.Topology, spec cluster.Spec) *FluidSim {
	f := NewFluidSim(t, spec, SinkTuples, 1)
	f.Noise = NoNoise()
	return f
}

func TestConfigValidate(t *testing.T) {
	tp := chainTopo(20)
	good := DefaultSyntheticConfig(tp, 2)
	if err := good.Validate(tp.N()); err != nil {
		t.Fatal(err)
	}
	bad := good.Clone()
	bad.Hints = bad.Hints[:2]
	if err := bad.Validate(tp.N()); err == nil {
		t.Fatal("hint-count mismatch accepted")
	}
	bad = good.Clone()
	bad.Hints[0] = 0
	if err := bad.Validate(tp.N()); err == nil {
		t.Fatal("zero hint accepted")
	}
	bad = good.Clone()
	bad.BatchParallelism = 0
	if err := bad.Validate(tp.N()); err == nil {
		t.Fatal("zero batch parallelism accepted")
	}
}

func TestNormalizedHints(t *testing.T) {
	c := Config{Hints: []int{10, 20, 30}, MaxTasks: 30}
	n := c.NormalizedHints()
	sum := n[0] + n[1] + n[2]
	if sum > 30 {
		t.Fatalf("normalization exceeded max-tasks: %v (sum %d)", n, sum)
	}
	// Proportions roughly preserved.
	if !(n[0] <= n[1] && n[1] <= n[2]) {
		t.Fatalf("normalization broke ordering: %v", n)
	}
	if n[0] < 1 {
		t.Fatalf("hint floored below 1: %v", n)
	}
	// No cap → unchanged.
	c2 := Config{Hints: []int{10, 20, 30}}
	n2 := c2.NormalizedHints()
	if n2[0] != 10 || n2[2] != 30 {
		t.Fatalf("uncapped hints changed: %v", n2)
	}
}

func TestNormalizedHintsFloorAtOne(t *testing.T) {
	c := Config{Hints: []int{1, 1, 100}, MaxTasks: 10}
	n := c.NormalizedHints()
	for i, h := range n {
		if h < 1 {
			t.Fatalf("hint %d below 1: %v", i, n)
		}
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	tp := chainTopo(20)
	a := DefaultSyntheticConfig(tp, 2)
	b := a.Clone()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs should share a fingerprint")
	}
	b.Hints[1]++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different configs should differ")
	}
	b = a.Clone()
	b.BatchSize++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("batch size change should alter fingerprint")
	}
}

func TestNoiseModel(t *testing.T) {
	n := DefaultNoise(7)
	a := n.Multiplier(123, 0)
	b := n.Multiplier(123, 0)
	if a != b {
		t.Fatal("noise must be deterministic per (config, run)")
	}
	c := n.Multiplier(123, 1)
	if a == c {
		t.Fatal("different runs should draw different noise")
	}
	if NoNoise().Multiplier(99, 3) != 1 {
		t.Fatal("NoNoise must return 1")
	}
	// Multipliers stay in a plausible band.
	for i := 0; i < 200; i++ {
		m := n.Multiplier(uint64(i), i)
		if m < 0.5 || m > 1.5 {
			t.Fatalf("noise multiplier %v outside sane band", m)
		}
	}
}

func TestFluidMoreParallelismHelpsUntilSaturation(t *testing.T) {
	tp := chainTopo(20)
	f := noNoiseFluid(tp, testCluster())
	prev := 0.0
	for _, h := range []int{1, 2, 4, 8} {
		r := f.Solve(DefaultSyntheticConfig(tp, h))
		if r.Failed {
			t.Fatalf("hint %d failed", h)
		}
		if r.Throughput < prev*0.99 {
			t.Fatalf("throughput dropped going to hint %d: %v → %v", h, prev, r.Throughput)
		}
		prev = r.Throughput
	}
}

func TestFluidContentionCancelsParallelism(t *testing.T) {
	tp := chainTopo(20)
	tp.Nodes[1].Contentious = true
	f := noNoiseFluid(tp, testCluster())
	r1 := f.Solve(DefaultSyntheticConfig(tp, 1))
	r8 := f.Solve(DefaultSyntheticConfig(tp, 8))
	if r1.Failed || r8.Failed {
		t.Fatal("runs failed")
	}
	// Parallelism must NOT buy throughput through the contentious bolt;
	// allow a little slack from other stages speeding up.
	if r8.Throughput > r1.Throughput*1.6 {
		t.Fatalf("contention should cancel parallelism gains: h=1 %v vs h=8 %v",
			r1.Throughput, r8.Throughput)
	}
}

func TestFluidSchedulerFailure(t *testing.T) {
	tp := chainTopo(20)
	spec := testCluster() // 8 machines × 48 slots = 384
	f := noNoiseFluid(tp, spec)
	cfg := DefaultSyntheticConfig(tp, 200) // 600 tasks
	r := f.Solve(cfg)
	if !r.Failed || r.Bottleneck != "scheduler" {
		t.Fatalf("oversubscription should fail scheduling: %+v", r)
	}
	if got := f.Run(cfg, 0); got.Throughput != 0 || !got.Failed {
		t.Fatalf("Run should report zero throughput on failure: %+v", got)
	}
}

func TestFluidMaxTasksNormalizationPreventsFailure(t *testing.T) {
	tp := chainTopo(20)
	f := noNoiseFluid(tp, testCluster())
	cfg := DefaultSyntheticConfig(tp, 200)
	cfg.MaxTasks = 100
	r := f.Solve(cfg)
	if r.Failed {
		t.Fatalf("normalized config should schedule: %+v", r)
	}
	if r.Tasks > 100 {
		t.Fatalf("normalization ineffective: %d tasks", r.Tasks)
	}
}

func TestFluidBatchPipelineBound(t *testing.T) {
	tp := chainTopo(20)
	f := noNoiseFluid(tp, testCluster())
	base := DefaultSyntheticConfig(tp, 8)
	base.BatchParallelism = 1
	base.BatchSize = 10
	r1 := f.Solve(base)
	more := base.Clone()
	more.BatchParallelism = 8
	r8 := f.Solve(more)
	if !(r8.Throughput > r1.Throughput*2) {
		t.Fatalf("batch parallelism should relieve the pipeline bound: bp=1 %v vs bp=8 %v",
			r1.Throughput, r8.Throughput)
	}
	if r1.Bottleneck != "batch" {
		t.Fatalf("bp=1 should be batch-bound, got %s", r1.Bottleneck)
	}
}

func TestFluidBiggerBatchesAmortizeOverhead(t *testing.T) {
	// With fixed bp, larger batches amortize the per-batch coordination
	// cost until stage time dominates.
	tp := chainTopo(0.01) // light per-tuple work (Sundog regime)
	f := noNoiseFluid(tp, testCluster())
	f.ReportMetric = SourceTuples
	cfg := DefaultConfig(tp, 8)
	cfg.BatchParallelism = 2
	cfg.BatchSize = 100
	small := f.Solve(cfg)
	cfg.BatchSize = 100000
	big := f.Solve(cfg)
	if !(big.Throughput > small.Throughput*3) {
		t.Fatalf("large batches should amortize overhead: bs=100 %v vs bs=100k %v",
			small.Throughput, big.Throughput)
	}
}

func TestFluidReceiverThreadBound(t *testing.T) {
	tp := chainTopo(0.001) // very light tuples → receiver-bound regime
	f := noNoiseFluid(tp, testCluster())
	f.ReportMetric = SourceTuples
	// Exaggerate receive cost relative to processing so the receiver
	// station clearly binds with a single thread.
	f.Costs.FrameworkOverheadMS = 0.01
	f.Costs.RecvCostMS = 0.05
	cfg := DefaultConfig(tp, 32)
	cfg.BatchSize = 500000
	cfg.BatchParallelism = 64
	cfg.ReceiverThreads = 1
	r1 := f.Solve(cfg)
	cfg.ReceiverThreads = 8
	r8 := f.Solve(cfg)
	if !(r8.Throughput > r1.Throughput*1.5) {
		t.Fatalf("receiver threads should matter for light tuples: 1→%v (%s) 8→%v (%s)",
			r1.Throughput, r1.Bottleneck, r8.Throughput, r8.Bottleneck)
	}
	if r1.Bottleneck != "receiver" {
		t.Fatalf("expected receiver bottleneck, got %s", r1.Bottleneck)
	}
}

func TestFluidAckerBound(t *testing.T) {
	tp := chainTopo(0.001)
	f := noNoiseFluid(tp, testCluster())
	f.ReportMetric = SourceTuples
	cfg := DefaultConfig(tp, 8)
	cfg.BatchSize = 500000
	cfg.BatchParallelism = 64
	cfg.ReceiverThreads = 16
	cfg.Ackers = 1
	r1 := f.Solve(cfg)
	cfg.Ackers = 64
	r64 := f.Solve(cfg)
	if !(r64.Throughput > r1.Throughput*1.5) {
		t.Fatalf("ackers should matter for light tuples: 1→%v (%s) 64→%v (%s)",
			r1.Throughput, r1.Bottleneck, r64.Throughput, r64.Bottleneck)
	}
}

func TestFluidNetworkAccountingPositive(t *testing.T) {
	tp := chainTopo(20)
	f := noNoiseFluid(tp, testCluster())
	r := f.Solve(DefaultSyntheticConfig(tp, 4))
	if r.NetworkBytesPerWorker <= 0 {
		t.Fatalf("network accounting missing: %+v", r)
	}
	// Paper Figure 3: network never saturated — far below 128 MB/s here.
	if r.NetworkBytesPerWorker > 0.5*128e6 {
		t.Fatalf("synthetic run should not approach NIC saturation: %v B/s", r.NetworkBytesPerWorker)
	}
}

func TestFluidRunAddsNoise(t *testing.T) {
	tp := chainTopo(20)
	f := NewFluidSim(tp, testCluster(), SinkTuples, 3)
	cfg := DefaultSyntheticConfig(tp, 4)
	a := f.Run(cfg, 0)
	b := f.Run(cfg, 1)
	if a.Throughput == b.Throughput {
		t.Fatal("distinct runs should see noise")
	}
	if f.Run(cfg, 0).Throughput != a.Throughput {
		t.Fatal("same run index must be reproducible")
	}
}

func TestFluidWeightProportionalBeatsUniform(t *testing.T) {
	// On a homogeneous fan-in topology under a task budget, hints
	// proportional to the base weights (= rates) must beat uniform
	// hints — the mechanism behind ipla's Figure 4 dominance.
	tp := topo.MustNew("fanin",
		[]topo.Node{
			{Name: "s1", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "s2", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "s3", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "join", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "sink", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
		},
		[]topo.Edge{
			{From: 0, To: 3, Grouping: topo.Shuffle},
			{From: 1, To: 3, Grouping: topo.Shuffle},
			{From: 2, To: 3, Grouping: topo.Shuffle},
			{From: 3, To: 4, Grouping: topo.Shuffle},
		},
	)
	f := noNoiseFluid(tp, testCluster())
	uniform := DefaultSyntheticConfig(tp, 3) // 15 tasks
	// Weights: spouts 1,1,1; join 3; sink 3 → proportional allocation
	// within a comparable 16-task budget.
	informed := DefaultSyntheticConfig(tp, 1)
	informed.Hints = []int{2, 2, 2, 5, 5}
	ru := f.Solve(uniform)
	ri := f.Solve(informed)
	if !(ri.Throughput > ru.Throughput*1.2) {
		t.Fatalf("weight-proportional should beat uniform under budget: uniform %v (%s) vs informed %v (%s)",
			ru.Throughput, ru.Bottleneck, ri.Throughput, ri.Bottleneck)
	}
}

func TestDESAgreesWithFluidOnOrdering(t *testing.T) {
	tp := chainTopo(20)
	spec := testCluster()
	fl := noNoiseFluid(tp, spec)
	ds := NewBatchDES(tp, spec, SinkTuples)
	cfgLo := DefaultSyntheticConfig(tp, 1)
	cfgHi := DefaultSyntheticConfig(tp, 6)
	flLo, flHi := fl.Solve(cfgLo).Throughput, fl.Solve(cfgHi).Throughput
	dsLo, dsHi := ds.Run(cfgLo, 0).Throughput, ds.Run(cfgHi, 0).Throughput
	if (flHi > flLo) != (dsHi > dsLo) {
		t.Fatalf("fluid and DES disagree on config ordering: fluid %v/%v, des %v/%v",
			flLo, flHi, dsLo, dsHi)
	}
}

func TestDESWithinToleranceOfFluid(t *testing.T) {
	tp := chainTopo(20)
	spec := testCluster()
	fl := noNoiseFluid(tp, spec)
	ds := NewBatchDES(tp, spec, SinkTuples)
	for _, h := range []int{1, 2, 4} {
		cfg := DefaultSyntheticConfig(tp, h)
		a := fl.Solve(cfg).Throughput
		b := ds.Run(cfg, 0).Throughput
		ratio := a / b
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("hint %d: fluid %v vs DES %v (ratio %v) outside tolerance", h, a, b, ratio)
		}
	}
}

func TestDESSchedulerFailure(t *testing.T) {
	tp := chainTopo(20)
	ds := NewBatchDES(tp, testCluster(), SinkTuples)
	r := ds.Run(DefaultSyntheticConfig(tp, 200), 0)
	if !r.Failed {
		t.Fatal("DES should fail on oversubscription")
	}
}

// TestHugeHintFailsPlacementUnplaced: a hint far past the cluster's
// task slots fails placement before any per-task state is built — at
// 2^40 tasks one int per task would exhaust memory.
func TestHugeHintFailsPlacementUnplaced(t *testing.T) {
	tp := chainTopo(20)
	cfg := DefaultSyntheticConfig(tp, 1)
	cfg.Hints[1] = 1 << 40
	for _, c := range []struct {
		name string
		ev   Evaluator
	}{
		{"fluid", noNoiseFluid(tp, testCluster())},
		{"des", NewBatchDES(tp, testCluster(), SinkTuples)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := c.ev.Run(cfg, 0)
		runtime.ReadMemStats(&after)
		if !r.Failed || r.Failure != FailurePlacement {
			t.Fatalf("%s: %+v, want a placement failure", c.name, r)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s allocated %d bytes to refuse a placement", c.name, got)
		}
	}
}

func TestDESDeterministic(t *testing.T) {
	tp := chainTopo(20)
	ds := NewBatchDES(tp, testCluster(), SinkTuples)
	cfg := DefaultSyntheticConfig(tp, 3)
	a := ds.Run(cfg, 0)
	b := ds.Run(cfg, 0)
	if a.Throughput != b.Throughput {
		t.Fatal("DES must be deterministic")
	}
}

func TestSundogUniformHintOptimumIsInterior(t *testing.T) {
	// The paper's pla found its best Sundog configuration at a moderate
	// uniform hint (11). Our simulator must reproduce the interior
	// optimum: beyond some hint, context-switch thrash inflates batch
	// stage times and throughput declines, so uniform-hint search does
	// not drift to the slot limit.
	sd := topo.Sundog()
	f := noNoiseFluid(sd, cluster.Paper())
	f.ReportMetric = SourceTuples
	bestH, bestY := 0, 0.0
	var last float64
	for h := 1; h <= 60; h++ {
		r := f.Solve(DefaultConfig(sd, h))
		if r.Failed {
			break
		}
		if r.Throughput > bestY {
			bestY = r.Throughput
			bestH = h
		}
		last = r.Throughput
	}
	if bestH < 5 || bestH > 40 {
		t.Fatalf("uniform-hint optimum at h=%d, want an interior moderate value", bestH)
	}
	if !(last < bestY*0.98) {
		t.Fatalf("throughput should decline past the optimum: best %v (h=%d) vs h=60 %v", bestY, bestH, last)
	}
}

func TestSundogThroughputRegime(t *testing.T) {
	// The Sundog pipeline on the paper cluster with the manual config
	// must land in the ~10⁵-10⁶ source tuples/s regime of Figure 8 and
	// improve when batch size and parallelism grow (the 2.8× result).
	sd := topo.Sundog()
	f := noNoiseFluid(sd, cluster.Paper())
	f.ReportMetric = SourceTuples
	manual := DefaultConfig(sd, 11)
	base := f.Solve(manual)
	if base.Failed {
		t.Fatalf("manual config failed: %+v", base)
	}
	if base.Throughput < 1e5 || base.Throughput > 5e6 {
		t.Fatalf("Sundog baseline %v outside the paper's regime", base.Throughput)
	}
	tuned := manual.Clone()
	tuned.BatchParallelism = 16
	tuned.BatchSize = 265312
	better := f.Solve(tuned)
	if !(better.Throughput > base.Throughput*1.5) {
		t.Fatalf("bs/bp tuning should give large gains: %v → %v (bottlenecks %s → %s)",
			base.Throughput, better.Throughput, base.Bottleneck, better.Bottleneck)
	}
	if math.IsInf(better.Throughput, 0) {
		t.Fatal("throughput must stay finite")
	}
}
