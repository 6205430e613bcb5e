package stormtune

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// flashTopology, flashCluster and flashBackend are the flash-crowd
// workload the internal/watch tests run: offered load 300 until
// t=2000, then a permanent flash crowd doubles it to 600.
func flashTopology() *Topology {
	tp, err := NewTopology("t",
		[]Node{
			{Name: "s", Kind: Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "a", Kind: Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "b", Kind: Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "c", Kind: Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
		},
		[]Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
	if err != nil {
		panic(err)
	}
	return tp
}

func flashCluster() ClusterSpec {
	return ClusterSpec{Machines: 8, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 16, ThrashTasksPerCore: 4}
}

func flashBackend(tp *Topology) Backend {
	return AsBackend(Drifting(quietEval(tp, flashCluster()), FlashCrowd{At: 2000, Magnitude: 2}, 300))
}

func flashWatchOptions(obs Observer) WatchOptions {
	spec := flashCluster()
	return WatchOptions{
		WatchPlan:        WatchPlan{Steps: 12, RetuneSteps: 10, TrialCost: 60, HoldInterval: 60, MaxEpisodes: 1},
		Cluster:          &spec,
		Monitor:          MonitorOptions{Window: 6},
		OptimizerOptions: OptimizerOptions{Candidates: 120, HyperSamples: 2, LocalSearchIters: 4},
		Observer:         obs,
	}
}

// firstAttemptLoser loses the first evaluation attempt of every tuning
// trial (a session hands the backend Attempt 1 for it). The hold
// phase's monitoring samples carry Attempt 0 and always succeed.
type firstAttemptLoser struct{ Backend }

func (b firstAttemptLoser) Run(ctx context.Context, tr Trial) (Result, error) {
	if tr.Attempt == 1 {
		return Result{}, errors.New("lost")
	}
	return b.Backend.Run(ctx, tr)
}

// failureCounter counts permanent TrialFailed events and completed
// trials.
type failureCounter struct {
	mu                   sync.Mutex
	permanent, completed int
}

func (c *failureCounter) OnEvent(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev := e.(type) {
	case TrialFailed:
		if ev.Permanent {
			c.permanent++
		}
	case TrialCompleted:
		c.completed++
	}
}

// TestResumeWatcherKeepsRetryPolicy: a watch snapshotted in its hold
// phase and resumed without a Retry of its own keeps the snapshot's
// retry policy, so its retune trials survive their lost first attempts
// as the uninterrupted watch's do.
func TestResumeWatcherKeepsRetryPolicy(t *testing.T) {
	tp := flashTopology()
	backend := func() Backend { return firstAttemptLoser{flashBackend(tp)} }
	retry := RetryPolicy{MaxAttempts: 2}

	var full failureCounter
	opts := flashWatchOptions(&full)
	opts.Retry = retry
	w, err := NewWatcher(tp, backend(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if full.permanent != 0 || w.Episodes() != 1 {
		t.Fatalf("uninterrupted watch: %d permanent failures, %d episodes; want 0 and 1", full.permanent, w.Episodes())
	}

	// Snapshot at the first hold sample, then stop.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *WatchState
	opts = flashWatchOptions(ObserverFunc(func(e Event) {
		if _, ok := e.(HoldSampled); ok && snap == nil {
			snap = w.Snapshot()
			cancel()
		}
	}))
	opts.Retry = retry
	if w, err = NewWatcher(tp, backend(), opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if snap == nil || snap.Watch.Phase != "hold" {
		t.Fatalf("test premise broken: want a hold-phase snapshot, got %+v", snap)
	}

	var resumed failureCounter
	rw, err := ResumeWatcher(snap, tp, backend(), WatchOptions{Observer: &resumed})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rw.Episodes() != 1 || resumed.completed == 0 {
		t.Fatalf("test premise broken: resumed watch ran %d episodes, %d trials; want a retune", rw.Episodes(), resumed.completed)
	}
	if resumed.permanent != 0 {
		t.Fatalf("resumed watch logged %d permanent TrialFailed, want 0 (retry policy dropped on resume)", resumed.permanent)
	}
}

// holdLoser loses every hold-phase monitoring sample: those carry
// Attempt 0, while a session's tuning trials carry Attempt 1 and up.
type holdLoser struct{ Backend }

func (b holdLoser) Run(ctx context.Context, tr Trial) (Result, error) {
	if tr.Attempt == 0 {
		return Result{}, errors.New("lost")
	}
	return b.Backend.Run(ctx, tr)
}

// TestWatchRetunesWhenEveryHoldSampleIsLost: a lost sample never
// enters the monitor's baseline, so a watch whose every hold sample is
// lost still retunes — with reason "failure", within Window plus the
// monitor's sustain (3) hold samples — instead of holding on a baseline of zeros until its
// horizon.
func TestWatchRetunesWhenEveryHoldSampleIsLost(t *testing.T) {
	tp := flashTopology()
	holds := 0
	var trig *RetuneTriggered
	opts := flashWatchOptions(ObserverFunc(func(e Event) {
		switch ev := e.(type) {
		case HoldSampled:
			if trig == nil {
				holds++
			}
		case RetuneTriggered:
			if trig == nil {
				trig = &ev
			}
		}
	}))
	opts.Horizon = 4000
	w, err := NewWatcher(tp, holdLoser{flashBackend(tp)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if trig == nil {
		t.Fatalf("no retune after %d lost hold samples (horizon %v)", holds, opts.Horizon)
	}
	const window, sustain = 6, 3 // flashWatchOptions' Window, the monitor's sustain
	if holds > window+sustain || trig.Reason != "failure" || w.Episodes() != 1 {
		t.Fatalf("retuned after %d lost hold samples (reason %q, %d episodes); want at most %d, \"failure\", 1",
			holds, trig.Reason, w.Episodes(), window+sustain)
	}
}

// TestWatcherRecorderKeepsEveryTrial: a watch's sessions each number
// their trials from 1, so a Recorder keyed on the session-local trial
// ID lets the retune episode's trials overwrite the initial tune's. The
// Recorder keys on the run index and lists every trial the watch ran.
func TestWatcherRecorderKeepsEveryTrial(t *testing.T) {
	tp := flashTopology()
	var count failureCounter
	rec := NewRecorder()
	opts := flashWatchOptions(&count)
	opts.Recorder = rec
	w, err := NewWatcher(tp, flashBackend(tp), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.Episodes() != 1 || count.completed != 22 {
		t.Fatalf("test premise broken: %d episodes, %d trials; want 1 and 22", w.Episodes(), count.completed)
	}
	snap := rec.Snapshot()
	if len(snap.Trials) != count.completed || snap.Completed != count.completed {
		t.Fatalf("recorder lists %d trials (%d completed), the watch completed %d", len(snap.Trials), snap.Completed, count.completed)
	}
	seen := make(map[int]bool, len(snap.Trials))
	for _, tv := range snap.Trials {
		if seen[tv.ID] {
			t.Fatalf("trial %d listed twice", tv.ID)
		}
		seen[tv.ID] = true
	}
	if len(snap.Incumbent) != count.completed {
		t.Fatalf("incumbent curve has %d points, want %d", len(snap.Incumbent), count.completed)
	}
}
