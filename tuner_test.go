package stormtune

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"stormtune/internal/core"
	"stormtune/internal/storm"
)

func fastTunerOpts(seed int64, steps int) TunerOptions {
	return TunerOptions{
		Steps: steps, Seed: seed,
		OptimizerOptions: OptimizerOptions{Candidates: 120, HyperSamples: 2, LocalSearchIters: 4},
	}
}

func quietEval(t *Topology, spec ClusterSpec) *storm.FluidSim {
	f := storm.NewFluidSim(t, spec, storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	return f
}

func recordsEqual(t *testing.T, a, b []RunRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Step != b[i].Step || a[i].Config.Fingerprint() != b[i].Config.Fingerprint() ||
			a[i].Result.Throughput != b[i].Result.Throughput {
			t.Fatalf("records diverge at %d: step %d/%d throughput %v/%v",
				i, a[i].Step, b[i].Step, a[i].Result.Throughput, b[i].Result.Throughput)
		}
	}
}

// TestTunerAskTell drives a session entirely from the outside — the
// external-cluster workflow: the tuner proposes, the caller measures
// however it wants and reports back.
func TestTunerAskTell(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	ev := quietEval(top, SmallCluster())
	opts := fastTunerOpts(3, 10)
	opts.Parallel = 2
	opts.Cluster = ptrCluster(SmallCluster())
	tn, err := NewTuner(top, nil, opts) // nil evaluator: ask/tell only
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	completed := 0
	for {
		trials, err := tn.Propose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) == 0 {
			break
		}
		if len(trials) > 2 {
			t.Fatalf("proposed %d trials with Parallel=2", len(trials))
		}
		for _, tr := range trials {
			if err := tn.Report(tr, ev.Run(tr.Config, tr.RunIndex)); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	if completed != 10 {
		t.Fatalf("completed %d trials, want the 10-step budget", completed)
	}
	if !tn.Done() {
		t.Fatal("session should be done after spending its budget")
	}
	if best, ok := tn.Best(); !ok || best.Result.Throughput <= 0 {
		t.Fatalf("ask/tell session found nothing: %+v", tn.Result())
	}
	if _, err := tn.Run(ctx); err == nil {
		t.Fatal("Run on an evaluator-less tuner must error")
	}
}

// TestTunerRunAsyncMatchesRunAtQ1: the free-slot driver at one slot is
// the paper's sequential procedure — a hand-driven Propose/Report loop
// — record for record (acceptance criterion); Run is RunAsync at one
// slot.
func TestTunerRunAsyncMatchesRunAtQ1(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	run := func(async bool) TuneResult {
		ev := quietEval(top, SmallCluster())
		opts := fastTunerOpts(5, 12)
		opts.Cluster = ptrCluster(SmallCluster())
		if !async {
			// The oracle: the paper's procedure by hand, one Propose and
			// one Report at a time.
			tn, err := NewTuner(top, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			for {
				trials, err := tn.Propose(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(trials) == 0 {
					return tn.Result()
				}
				if err := tn.Report(trials[0], ev.Run(trials[0].Config, trials[0].RunIndex)); err != nil {
					t.Fatal(err)
				}
			}
		}
		tn, err := NewTuner(top, AsBackend(ev), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.RunAsync(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, async := run(false), run(true)
	recordsEqual(t, seq.Records, async.Records)
	// And a second Tuner built the same way — strategy injected rather
	// than built-in — still agrees with the session drivers.
	strat := NewBO(top, SmallCluster(), DefaultConfig(top, 1), boOptions(Hints, 5, fastTunerOpts(5, 12).OptimizerOptions))
	tn, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())),
		TunerOptions{Steps: 12, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, seq.Records, injected.Records)
}

func ptrCluster(s ClusterSpec) *ClusterSpec { return &s }

// TestTunerAsyncBeatsBatchWallClock is the headline acceptance test:
// under seeded heavy-tailed trial durations at q=4, free-slot refill
// must finish the same budget sooner than barrier batching, with
// comparable final throughput (regret parity). Both drivers run on a
// core.SimBackend, so the comparison is of simulated time: trial
// durations are storm.Jittered's seeded draws, the clock advances only
// by them, and the ask's CPU time, the host's load and the race
// detector cannot move either makespan. Given the seed each run is
// deterministic, completion order included.
func TestTunerAsyncBeatsBatchWallClock(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	run := func(async bool) (TuneResult, time.Duration) {
		jit := storm.Jittered(quietEval(top, SmallCluster()), time.Millisecond, 11)
		bk := &core.SimBackend{Ev: jit.Inner, Duration: jit.Duration}
		opts := fastTunerOpts(7, 24)
		opts.Cluster = ptrCluster(SmallCluster())
		tn, err := NewTuner(top, bk, opts)
		if err != nil {
			t.Fatal(err)
		}
		var res TuneResult
		if async {
			res, err = tn.RunAsync(context.Background(), 4)
		} else {
			res, err = tn.RunBatch(context.Background(), 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, bk.Now()
	}
	batchRes, batchTime := run(false)
	asyncRes, asyncTime := run(true)
	if len(asyncRes.Records) != 24 || len(batchRes.Records) != 24 {
		t.Fatalf("budgets not honored: async %d batch %d", len(asyncRes.Records), len(batchRes.Records))
	}
	// Same number of trials, durations from the same distribution:
	// refilling a slot the moment it frees must beat waiting for the
	// slowest trial of every round.
	t.Logf("simulated makespan: async %v, barrier %v", asyncTime, batchTime)
	if asyncTime >= batchTime {
		t.Fatalf("async makespan %v is not below the barrier's %v", asyncTime, batchTime)
	}
	ab, okA := asyncRes.Best()
	bb, okB := batchRes.Best()
	if !okA || !okB {
		t.Fatal("a driver found nothing")
	}
	// Regret sanity bound: the two drivers propose from different
	// completion orders, so this is not a parity check; occasionally one
	// mode lands on a config exactly one hint doubling below the
	// other's. Only catastrophic regret fails.
	lo, hi := ab.Result.Throughput, bb.Result.Throughput
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0.4*hi {
		t.Fatalf("regret too high: async best %v vs batch best %v", ab.Result.Throughput, bb.Result.Throughput)
	}
}

// TestTunerSnapshotResumeBitIdentical is the other acceptance
// criterion: cancel a run mid-flight, snapshot it, round-trip the
// snapshot through JSON, resume, and end with exactly the result an
// uninterrupted run produces.
func TestTunerSnapshotResumeBitIdentical(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	newOpts := func() TunerOptions {
		o := fastTunerOpts(9, 16)
		o.Cluster = ptrCluster(SmallCluster())
		return o
	}

	full, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), newOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 7 completed trials ("the lab
	// closes"), snapshot, serialize, resume, finish.
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	opts := newOpts()
	opts.Observer = ObserverFunc(func(e Event) {
		if _, ok := e.(TrialCompleted); ok {
			if n++; n == 7 {
				cancel()
			}
		}
	})
	half, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := half.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	var buf bytes.Buffer
	if err := half.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := LoadTunerState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeTuner(st, top, AsBackend(quietEval(top, SmallCluster())), TunerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, want.Records, got.Records)
	wb, _ := want.Best()
	gb, _ := got.Best()
	if wb.Result.Throughput != gb.Result.Throughput || wb.Step != gb.Step {
		t.Fatalf("resumed best (%v @ %d) differs from uninterrupted (%v @ %d)",
			gb.Result.Throughput, gb.Step, wb.Result.Throughput, wb.Step)
	}
}

// TestTunerRunAsyncClampsParallelism: q beyond the cluster's
// concurrent-trial capacity is reduced, with an event, instead of
// oversubscribing.
func TestTunerRunAsyncClampsParallelism(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	tiny := ClusterSpec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 12, ThrashTasksPerCore: 2}
	var clamped []ParallelismClamped
	opts := fastTunerOpts(2, 6)
	opts.Cluster = &tiny
	opts.Observer = ObserverFunc(func(e Event) {
		if c, ok := e.(ParallelismClamped); ok {
			clamped = append(clamped, c)
		}
	})
	tn, err := NewTuner(top, AsBackend(quietEval(top, tiny)), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := tn.MaxParallel()
	if want >= 64 {
		t.Fatalf("test premise broken: capacity %d too large", want)
	}
	if _, err := tn.RunAsync(context.Background(), 64); err != nil {
		t.Fatal(err)
	}
	if len(clamped) != 1 || clamped[0].Requested != 64 || clamped[0].Allowed != want {
		t.Fatalf("clamp events = %+v, want one 64→%d", clamped, want)
	}
}

// TestTunerRunBatchClampsParallelism: the barrier driver clamps q to
// the cluster's capacity too — one ParallelismClamped event, and the
// same records as asking for exactly the capacity.
func TestTunerRunBatchClampsParallelism(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	tiny := ClusterSpec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 12, ThrashTasksPerCore: 2}
	run := func(q int) (TuneResult, []ParallelismClamped, int) {
		var clamped []ParallelismClamped
		opts := fastTunerOpts(2, 8)
		opts.Cluster = &tiny
		opts.Observer = ObserverFunc(func(e Event) {
			if c, ok := e.(ParallelismClamped); ok {
				clamped = append(clamped, c)
			}
		})
		tn, err := NewTuner(top, AsBackend(quietEval(top, tiny)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if q == 0 {
			q = tn.MaxParallel()
		}
		res, err := tn.RunBatch(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res, clamped, tn.MaxParallel()
	}
	want, none, bound := run(0)
	if bound < 2 || bound >= 64 {
		t.Fatalf("test premise broken: capacity %d, want a barrier batch below 64", bound)
	}
	if len(none) != 0 {
		t.Fatalf("RunBatch(%d) at capacity emitted %+v", bound, none)
	}
	got, clamped, _ := run(64)
	if len(clamped) != 1 || clamped[0].Requested != 64 || clamped[0].Allowed != bound {
		t.Fatalf("clamp events = %+v, want one 64→%d", clamped, bound)
	}
	recordsEqual(t, want.Records, got.Records)
}

// TestTunerCustomStrategyResume: an injected strategy snapshots and
// resumes too, as long as the caller supplies an equally fresh one.
func TestTunerCustomStrategyResume(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	ev := quietEval(top, SmallCluster())
	mk := func() Strategy { return NewPLA(top, DefaultSyntheticConfig(top, 1)) }

	tn, err := NewTuner(top, AsBackend(ev), TunerOptions{Steps: 4, Strategy: mk(), Cluster: ptrCluster(SmallCluster())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := tn.Snapshot()
	if !st.Custom {
		t.Fatal("snapshot should record the custom strategy")
	}
	if _, err := ResumeTuner(st, top, AsBackend(ev), TunerOptions{}); err == nil {
		t.Fatal("resume without a fresh strategy must fail")
	}
	resumed, err := ResumeTuner(st, top, AsBackend(ev), TunerOptions{Strategy: mk(), Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("resumed run has %d records, want 8", len(res.Records))
	}
	// PLA proposes hints 1,2,3,… — the resumed half must continue at 5.
	if h := res.Records[4].Config.Hints[0]; h != 5 {
		t.Fatalf("resumed PLA restarted: step 5 hint %d", h)
	}
}

// TestResumeTunerRejectsWrongTopology guards against resuming a
// snapshot over a different topology.
func TestResumeTunerRejectsWrongTopology(t *testing.T) {
	small := BuildSynthetic("small", Condition{}, 1)
	medium := BuildSynthetic("medium", Condition{}, 1)
	tn, err := NewTuner(small, AsBackend(quietEval(small, SmallCluster())), fastTunerOpts(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeTuner(tn.Snapshot(), medium, nil, TunerOptions{}); err == nil {
		t.Fatal("resume over a different topology must fail")
	}
}
