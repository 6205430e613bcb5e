// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableX / BenchmarkFigX runs the
// corresponding experiment and prints the paper-style report once (so
// `go test -bench=.` output contains the regenerated rows).
//
// By default the experiments run at a reduced scale that preserves the
// paper's qualitative shapes; set STORMTUNE_FULL=1 for the full §V
// protocol (60/180 steps, 2 passes, 30 re-runs, all three sizes).
//
// The micro-benchmarks at the bottom measure the library's hot paths:
// one simulated measurement run (the paper burned ~2 cluster-minutes
// per sample; the fluid evaluator answers in microseconds) and one
// Bayesian-optimizer decision step.
package stormtune_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"stormtune"
	"stormtune/internal/archive"
	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/experiments"
	"stormtune/internal/gp"
	"stormtune/internal/scheduler"
	"stormtune/internal/storm"
	"stormtune/internal/watch"
)

var printed sync.Map

// benchExperiment runs one experiment id per iteration, printing its
// report the first time.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := experiments.ScaleFromEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.Run(id, sc, &buf); err != nil {
			b.Fatal(err)
		}
		if _, done := printed.LoadOrStore(id, true); !done {
			fmt.Fprint(os.Stdout, buf.String())
		}
	}
}

// BenchmarkTable2 regenerates Table II (synthetic topology statistics).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table III (operator counts in literature).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig3 regenerates Figure 3 (network load per worker).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4 (throughput across conditions,
// sizes and strategies). The synthetic grid is computed once and cached
// for Figures 5-7, exactly as the paper derives those figures from the
// same experiment series.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (convergence speed).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (LOESS-smoothed optimization traces).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (optimizer decision time vs size).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8a regenerates Figure 8a (Sundog throughput by parameter
// set).
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }

// BenchmarkFig8b regenerates Figure 8b (Sundog convergence traces).
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }

// BenchmarkAblation runs the optimizer-design ablation (acquisition
// function, hyperparameter marginalization, candidate seeding).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkBatchScaling regenerates the concurrent-trials report.
func BenchmarkBatchScaling(b *testing.B) { benchExperiment(b, "batch") }

// BenchmarkAsyncScaling regenerates the dispatch-mode report
// (sequential vs barrier batch vs free-slot refill under heavy-tailed
// trial durations).
func BenchmarkAsyncScaling(b *testing.B) { benchExperiment(b, "async") }

// BenchmarkFluidSolve measures one simulated measurement run of the
// medium topology — the objective-function evaluation inside every
// optimization step.
func BenchmarkFluidSolve(b *testing.B) {
	t := stormtune.BuildSynthetic("medium", stormtune.Condition{}, 1)
	ev := stormtune.NewFluidSim(t, stormtune.PaperCluster(), stormtune.SinkTuples, 1)
	cfg := stormtune.DefaultSyntheticConfig(t, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ev.Run(cfg, i)
		if r.Failed {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkBatchDES measures one discrete-event simulation of the small
// topology's batch pipeline.
func BenchmarkBatchDES(b *testing.B) {
	t := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	ev := stormtune.NewBatchDES(t, stormtune.SmallCluster(), stormtune.SinkTuples)
	cfg := stormtune.DefaultSyntheticConfig(t, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ev.Run(cfg, i)
		if r.Failed {
			b.Fatal("run failed")
		}
	}
}

// BenchmarkGPFit measures fitting the Gaussian process on a 60-point
// design in 11 dimensions (the small topology's search space after a
// full optimization pass).
func BenchmarkGPFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, d = 60, 11
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gp.New(gp.NewMatern52(d, 0.3), 1e-3)
		if err := g.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// suggestBenchSpace is the 6-dimensional space (4 float, 2 int) the
// optimizer decision-step benchmarks share.
func suggestBenchSpace() *bo.Space {
	return bo.MustSpace(
		bo.Dim{Name: "a", Kind: bo.Float, Min: 0, Max: 1},
		bo.Dim{Name: "b", Kind: bo.Float, Min: 0, Max: 1},
		bo.Dim{Name: "c", Kind: bo.Float, Min: 0, Max: 1},
		bo.Dim{Name: "d", Kind: bo.Float, Min: 0, Max: 1},
		bo.Dim{Name: "e", Kind: bo.Int, Min: 1, Max: 64},
		bo.Dim{Name: "f", Kind: bo.Int, Min: 1, Max: 64},
	)
}

func suggestBenchObjective(u []float64) float64 {
	return -((u[0]-0.4)*(u[0]-0.4) + (u[1]-0.6)*(u[1]-0.6) + 0.1*u[2])
}

// seedSuggestBench feeds n pseudo-random observations into opt and runs
// one untimed warm-up ask/tell turn, so the timed iterations measure the
// steady-state incremental hot path — cached Cholesky factors extended
// per observation, hyperparameter refits amortized across the epoch —
// rather than the first ask's cold fit and slice-sampling burn.
func seedSuggestBench(b *testing.B, opt *bo.Optimizer, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		u := make([]float64, 6)
		for j := range u {
			u[j] = rng.Float64()
		}
		opt.Observe(u, suggestBenchObjective(u))
	}
	u := opt.Suggest()
	opt.Observe(u, suggestBenchObjective(u))
}

// benchmarkSuggestWorkers measures one optimizer decision step on a
// 100-observation history at a fixed worker count; the Sequential/
// Parallel pair below shows the speedup of the concurrent candidate
// scorer on multi-core hardware. Gated against BENCH_baseline.json by
// cmd/benchcmp.
func benchmarkSuggestWorkers(b *testing.B, workers int) {
	b.Helper()
	opt := bo.NewOptimizer(suggestBenchSpace(), bo.Options{
		Seed: 1, Candidates: 150, HyperSamples: 2, Workers: workers,
		LocalSearchIters: -1,
	})
	seedSuggestBench(b, opt, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := opt.Suggest()
		opt.Observe(u, suggestBenchObjective(u))
	}
}

// BenchmarkFleetSchedule measures the fleet scheduler's slot-allocation
// hot path: the weighted fair-share pick plus the grant/release
// bookkeeping, across 64 sessions with mixed weights and per-session
// in-flight caps — the decision made every time a shared slot frees up
// under `stormtune fleet`. One benchmark op is 4096 decisions, so the
// ns/op is stable at the gate's small -benchtime. Gated against
// BENCH_baseline.json by cmd/benchcmp.
func BenchmarkFleetSchedule(b *testing.B) {
	const sessions, slots, rounds = 64, 16, 4096
	weights := make([]float64, sessions)
	caps := make([]int, sessions)
	for i := range weights {
		weights[i] = float64(1 + i%4)
		caps[i] = 1 + i%3
	}
	share := scheduler.NewFairShare(weights)
	inflight := make([]int, sessions)
	eligible := make([]bool, sessions)
	// Grants release FIFO through a fixed ring: the oldest in-flight
	// trial completes whenever the shared slots fill up.
	var ring [slots]int
	head, held := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			for j := range eligible {
				eligible[j] = inflight[j] < caps[j]
			}
			if g := share.Pick(eligible); g >= 0 {
				inflight[g]++
				ring[(head+held)%slots] = g
				held++
			}
			if held == slots {
				inflight[ring[head]]--
				head = (head + 1) % slots
				held--
			}
		}
	}
}

// BenchmarkBOSuggestSequentialScorer pins candidate scoring and GP
// refits to one goroutine.
func BenchmarkBOSuggestSequentialScorer(b *testing.B) { benchmarkSuggestWorkers(b, 1) }

// BenchmarkBOSuggestParallelScorer fans both out across all cores.
func BenchmarkBOSuggestParallelScorer(b *testing.B) { benchmarkSuggestWorkers(b, runtime.NumCPU()) }

// BenchmarkGPObserveIncremental measures conditioning one new
// observation into a 500-point GP and retracting it again — the rank-1
// Cholesky extend/shrink pair plus the two alpha refreshes that the
// optimizer's cached hot path performs per ask instead of an O(n³)
// refactorization. Gated against BENCH_baseline.json by cmd/benchcmp.
func BenchmarkGPObserveIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, d = 500, 6
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = rng.NormFloat64()
	}
	g := gp.New(gp.NewMatern52(d, 0.3), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, d)
	for j := range x {
		x[j] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Observe(x, 0.5); err != nil {
			b.Fatal(err)
		}
		if err := g.Retract(x, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBOSuggestLargeHistory measures the decision step as the
// observation history grows past the exact-GP regime: n=100 and n=250
// (the mid-history regime, where the O(n²) variance solve dominates
// scoring) run dense cached Cholesky, n=1000 and n=10000 sit past
// ApproxAfter and run the random-Fourier-feature surrogate, whose
// per-ask cost is constant in n. The sub-benchmarks together pin the
// sublinear growth of the hot path. Gated against BENCH_baseline.json
// by cmd/benchcmp.
func BenchmarkBOSuggestLargeHistory(b *testing.B) {
	for _, n := range []int{100, 250, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			opt := bo.NewOptimizer(suggestBenchSpace(), bo.Options{
				Seed: 1, Candidates: 150, HyperSamples: 2, LocalSearchIters: -1,
				ApproxAfter: 512, RFFFeatures: 128,
			})
			seedSuggestBench(b, opt, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := opt.Suggest()
				opt.Observe(u, suggestBenchObjective(u))
			}
		})
	}
}

// BenchmarkBOSuggestWarmPrior measures the steady-state decision step
// of a warm-started session: a 61-point history, the paper's H=6 hyper
// samples, and a transfer prior mean over 48 archived points shaped
// like core's (a similarity-weighted Nadaraya-Watson sum, one exp per
// archived point per evaluation). Compare with the prior-free steps
// above to see what the prior adds to an ask.
func BenchmarkBOSuggestWarmPrior(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const donors = 48
	us := make([][]float64, donors)
	zs := make([]float64, donors)
	for i := range us {
		us[i] = make([]float64, 6)
		for j := range us[i] {
			us[i][j] = rng.Float64()
		}
		zs[i] = rng.NormFloat64()
	}
	prior := func(u []float64) float64 {
		var num, den float64
		for i, ui := range us {
			d2 := 0.0
			for j := range u {
				dd := u[j] - ui[j]
				d2 += dd * dd
			}
			k := 0.8 * math.Exp(-d2/(2*0.25*0.25))
			num += k * zs[i]
			den += k
		}
		return num / (den + 1)
	}
	opt := bo.NewOptimizer(suggestBenchSpace(), bo.Options{
		Seed: 1, Candidates: 150, HyperSamples: 6, PriorMean: prior,
	})
	seedSuggestBench(b, opt, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := opt.Suggest()
		opt.Observe(u, suggestBenchObjective(u))
	}
}

// BenchmarkTuneBatch measures a full concurrent-trials round (q=4) on
// the fluid evaluator, the dispatch loop of the batch engine.
func BenchmarkTuneBatch(b *testing.B) {
	t := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	spec := stormtune.SmallCluster()
	ev := stormtune.NewFluidSim(t, spec, stormtune.SinkTuples, 1)
	template := stormtune.DefaultSyntheticConfig(t, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat := stormtune.NewBO(t, spec, template, stormtune.BOOptions{
			Seed: int64(i + 1),
			Opt:  bo.Options{Candidates: 150, HyperSamples: 2, LocalSearchIters: 4},
		})
		tn, err := stormtune.NewTuner(t, stormtune.AsBackend(ev), stormtune.TunerOptions{
			Steps: 12, Strategy: strat, Cluster: &spec, Template: &template,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tn.RunBatch(context.Background(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkTunerRunAsync measures a full free-slot-refill session
// (q=4) on the fluid evaluator — the async counterpart of
// BenchmarkTuneBatch.
func BenchmarkTunerRunAsync(b *testing.B) {
	t := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	spec := stormtune.SmallCluster()
	template := stormtune.DefaultSyntheticConfig(t, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := stormtune.NewFluidSim(t, spec, stormtune.SinkTuples, 1)
		tn, err := stormtune.NewTuner(t, stormtune.AsBackend(ev), stormtune.TunerOptions{
			Steps: 12, Seed: int64(i + 1), Template: &template, Cluster: &spec,
			Candidates: 150, HyperSamples: 2, LocalSearchIters: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tn.RunAsync(context.Background(), 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkMonitorObserve measures the watch degradation monitor
// consuming a 10k-sample observation stream per op — the per-sample
// cost of continuous tuning's hold phase (rolling baseline update,
// degradation/backpressure streak tracking, episode bookkeeping),
// including the trigger/reset cycle every time a degradation burst
// fires. Gated against BENCH_baseline.json by cmd/benchcmp.
func BenchmarkMonitorObserve(b *testing.B) {
	const samples = 10_000
	// A deterministic stream: long healthy stretches with a degradation
	// burst every 100 samples, so each op exercises fills, pushes,
	// streaks and ~100 full trigger/reset episodes.
	stream := make([]storm.Result, samples)
	for i := range stream {
		r := storm.Result{Throughput: 95 + float64(i%7), OfferedLoad: 100}
		if i%100 >= 90 {
			r.Throughput = 40
			r.Backpressured = true
		}
		stream[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := watch.NewMonitor(watch.MonitorOptions{Window: 8})
		for j, r := range stream {
			m.Observe(float64(j)*60, r)
			if _, ok := m.TakeTrigger(); ok {
				m.Reset()
			}
		}
	}
}

// BenchmarkArchiveQuery measures one similarity-ranked top-k lookup
// against a 1000-session archive — the query a warm-started session
// issues at construction time, scanning every record's feature vector
// (exact fingerprint matches ranked first, then weighted feature
// distance). Gated against BENCH_baseline.json by cmd/benchcmp.
func BenchmarkArchiveQuery(b *testing.B) {
	store := archive.NewMem()
	cfg := storm.Config{Hints: []int{4, 4, 4, 4}, BatchSize: 50, BatchParallelism: 8, WorkerThreads: 8, ReceiverThreads: 1}
	for i := 0; i < 1000; i++ {
		meta := archive.SessionMeta{
			Key:         fmt.Sprintf("s%04d", i),
			Fingerprint: uint64(1 + i%97), // a handful of exact matches per fingerprint
			Topology:    "bench",
			Strategy:    "bo",
			Seed:        int64(i),
			Features: archive.Features{
				Nodes: 4 + i%32, Spouts: 1 + i%3, Edges: 6 + i%40,
				Depth: 2 + i%8, FanOut: 1 + i%5, TIIMClass: i % 4,
				Contention: float64(i%10) / 10, Machines: 8, Slots: 16,
			},
		}
		if err := store.Begin(meta); err != nil {
			b.Fatal(err)
		}
		if err := store.Append(meta.Key,
			archive.TrialRecord{Step: 1, Config: cfg, Y: float64(i)},
			archive.TrialRecord{Step: 2, Config: cfg, Y: float64(i) * 1.1},
		); err != nil {
			b.Fatal(err)
		}
	}
	target := archive.Features{
		Nodes: 10, Spouts: 2, Edges: 14, Depth: 4, FanOut: 3,
		TIIMClass: 1, Contention: 0.2, Machines: 8, Slots: 16,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := archive.Query(store, 50, target, 5); len(rs) != 5 {
			b.Fatalf("got %d ranked results, want 5", len(rs))
		}
	}
}

// BenchmarkWarmStartSeed measures computing one transfer seed — the
// archive query, donor filtering, warm-point projection and prior
// training-set assembly a warm-started tuner performs once at
// construction — against an archive holding 8 same-fingerprint donors
// of 60 trials each plus 200 dissimilar sessions. Gated against
// BENCH_baseline.json by cmd/benchcmp.
func BenchmarkWarmStartSeed(b *testing.B) {
	top := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	spec := cluster.Small()
	template := storm.DefaultSyntheticConfig(top, 1)
	store := archive.NewMem()
	rng := rand.New(rand.NewSource(4))

	// Same-fingerprint donors: archived evidence the transfer must rank
	// first, project into the unit cube and z-score for the prior.
	feats := archive.Extract(top, spec)
	for d := 0; d < 8; d++ {
		meta := archive.SessionMeta{
			Key: fmt.Sprintf("donor-%d", d), Fingerprint: top.Fingerprint(),
			Topology: top.Name, Strategy: "bo", Set: int(core.Hints),
			Seed: int64(d), Features: feats,
		}
		if err := store.Begin(meta); err != nil {
			b.Fatal(err)
		}
		for s := 1; s <= 60; s++ {
			cfg := template
			cfg.Hints = make([]int, top.N())
			for j := range cfg.Hints {
				cfg.Hints[j] = 1 + rng.Intn(64)
			}
			if err := store.Append(meta.Key,
				archive.TrialRecord{Step: s, Config: cfg, Y: 1000 + 500*rng.Float64()}); err != nil {
				b.Fatal(err)
			}
		}
		if err := store.Seal(meta.Key, nil); err != nil {
			b.Fatal(err)
		}
	}
	// Dissimilar background sessions the query has to scan past.
	for i := 0; i < 200; i++ {
		meta := archive.SessionMeta{
			Key: fmt.Sprintf("other-%d", i), Fingerprint: uint64(1_000_000 + i),
			Topology: "other", Strategy: "bo", Set: int(core.Hints), Seed: int64(i),
			Features: archive.Features{
				Nodes: 3 + i%40, Spouts: 1, Edges: 4 + i%50, Depth: 2 + i%10,
				FanOut: 1 + i%6, TIIMClass: i % 4, Contention: float64(i%7) / 7,
				Machines: 4, Slots: 8,
			},
		}
		if err := store.Begin(meta); err != nil {
			b.Fatal(err)
		}
	}

	bs := core.NewBO(top, spec, template, core.BOOptions{
		Seed: 99, Opt: bo.Options{Candidates: 150, HyperSamples: 2, LocalSearchIters: 4},
	})
	meta := core.SessionMetaFor("self", top, spec, "bo", core.Hints, 99)
	ws := core.WarmStartOptions{Enabled: true, Prior: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := core.ComputeTransfer(bs, store, meta, ws)
		if seed == nil || !seed.Exact || len(seed.Points) == 0 {
			b.Fatalf("transfer seed = %+v, want an exact-donor warm start", seed)
		}
	}
}

// BenchmarkBOSuggest measures one optimizer decision step with 30
// observations — the per-step cost Figure 7 studies.
func BenchmarkBOSuggest(b *testing.B) {
	space := bo.MustSpace(
		bo.Dim{Name: "x", Kind: bo.Float, Min: 0, Max: 1},
		bo.Dim{Name: "y", Kind: bo.Float, Min: 0, Max: 1},
		bo.Dim{Name: "n", Kind: bo.Int, Min: 1, Max: 64},
	)
	opt := bo.NewOptimizer(space, bo.Options{Seed: 1, Candidates: 300, HyperSamples: 2})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		u := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		opt.Observe(u, -((u[0]-0.4)*(u[0]-0.4) + (u[1]-0.6)*(u[1]-0.6)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := opt.Suggest()
		opt.Observe(u, -((u[0]-0.4)*(u[0]-0.4) + (u[1]-0.6)*(u[1]-0.6)))
	}
}
