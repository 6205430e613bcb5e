package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stormtune/internal/cluster"
	"stormtune/internal/storm"
)

func newTestBO(seed int64) *BOStrategy {
	o := fastBOOpts()
	o.Seed = seed
	return NewBO(testTopo(), cluster.Small(), storm.DefaultSyntheticConfig(testTopo(), 1), o)
}

func sameRecords(t *testing.T, a, b []RunRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Step != b[i].Step {
			t.Fatalf("record %d step %d vs %d", i, a[i].Step, b[i].Step)
		}
		if a[i].Config.Fingerprint() != b[i].Config.Fingerprint() {
			t.Fatalf("record %d configs differ", i)
		}
		if a[i].Result.Throughput != b[i].Result.Throughput {
			t.Fatalf("record %d throughput %v vs %v", i, a[i].Result.Throughput, b[i].Result.Throughput)
		}
	}
}

// TestSessionAskTellMatchesTune drives a session by hand through
// Propose/Report and checks the result is identical to the sequential
// Run driver with the same seed.
func TestSessionAskTellMatchesTune(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	want := runPass(t, f, newTestBO(9), 12, 1, 0)

	sess := NewSession(newTestBO(9), nil, SessionOptions{MaxSteps: 12})
	ctx := context.Background()
	for {
		trials, err := sess.Propose(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) == 0 {
			break
		}
		tr := trials[0]
		if err := sess.Report(tr, f.Run(tr.Config, tr.RunIndex)); err != nil {
			t.Fatal(err)
		}
	}
	got := sess.Result()
	sameRecords(t, want.Records, got.Records)
	if want.BestStep != got.BestStep {
		t.Fatalf("best step %d vs %d", want.BestStep, got.BestStep)
	}
}

// refillOracle drives a backend-less session by hand the way a
// free-slot driver at q slots does when trials complete in ID order:
// Propose(q), then repeatedly report the lowest pending trial and
// Propose(1). At q = 1 it is the sequential ask/tell loop.
func refillOracle(t *testing.T, ev storm.Evaluator, strat Strategy, steps, q int) TuneResult {
	t.Helper()
	sess := NewSession(strat, nil, SessionOptions{MaxSteps: steps})
	ctx := context.Background()
	if _, err := sess.Propose(ctx, q); err != nil {
		t.Fatal(err)
	}
	for {
		pending := sess.Pending()
		if len(pending) == 0 {
			return sess.Result()
		}
		tr := pending[0]
		if err := sess.Report(tr, ev.Run(tr.Config, tr.RunIndex)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Propose(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionRunAsyncOneSlotMatchesTune: at q=1 the free-slot driver is
// the paper's sequential procedure — a hand-driven Propose(1)/Report
// loop — record for record.
func TestSessionRunAsyncOneSlotMatchesTune(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	want := refillOracle(t, f, newTestBO(4), 10, 1)
	sess := NewSession(newTestBO(4), AsBackend(f), SessionOptions{MaxSteps: 10})
	got, err := sess.RunAsync(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, want.Records, got.Records)
	if want.BestStep != got.BestStep {
		t.Fatalf("best step %d vs %d", want.BestStep, got.BestStep)
	}
}

// inOrderBackend completes trial k only after trial k-1 has been
// reported, so a concurrent driver sees completions strictly in ID
// order.
type inOrderBackend struct {
	ev storm.Evaluator
	// reported[k] is closed once trial k has been reported.
	reported []chan struct{}
}

func newInOrderBackend(ev storm.Evaluator, steps int) *inOrderBackend {
	b := &inOrderBackend{ev: ev, reported: make([]chan struct{}, steps+1)}
	for i := range b.reported {
		b.reported[i] = make(chan struct{})
	}
	return b
}

func (b *inOrderBackend) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	if tr.ID > 1 {
		select {
		case <-b.reported[tr.ID-1]:
		case <-ctx.Done():
			return storm.Result{}, ctx.Err()
		}
	}
	return b.ev.Run(tr.Config, tr.RunIndex), nil
}

// OnEvent marks reports; the session emits TrialCompleted before its
// driver handles the next completion.
func (b *inOrderBackend) OnEvent(e Event) {
	if c, ok := e.(TrialCompleted); ok {
		close(b.reported[c.Trial.ID])
	}
}

// TestSessionRunAsyncMatchesRefillOracle pins what RunAsync proposes at
// q > 1: with completions in ID order its records equal the hand-driven
// free-slot ask/tell loop — Propose(3), then report the lowest pending
// trial and Propose(1), repeatedly.
func TestSessionRunAsyncMatchesRefillOracle(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	const steps, q = 12, 3
	want := refillOracle(t, f, newTestBO(8), steps, q)
	bk := newInOrderBackend(f, steps)
	sess := NewSession(newTestBO(8), bk, SessionOptions{MaxSteps: steps, Observer: bk})
	got, err := sess.RunAsync(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, want.Records, got.Records)
	if want.BestStep != got.BestStep {
		t.Fatalf("best step %d vs %d", want.BestStep, got.BestStep)
	}
}

// TestSessionSnapshotResumeBitIdentical snapshots a sequential run
// mid-way, resumes it with a fresh strategy, and checks the combined
// run matches an uninterrupted one record for record.
func TestSessionSnapshotResumeBitIdentical(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	full := runPass(t, f, newTestBO(7), 16, 1, 0)

	half := NewSession(newTestBO(7), AsBackend(f), SessionOptions{MaxSteps: 8})
	if _, err := half.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := half.Snapshot()

	resumed, err := ResumeSession(st, newTestBO(7), AsBackend(f), SessionOptions{MaxSteps: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, full.Records, got.Records)
	if full.BestStep != got.BestStep {
		t.Fatalf("best step %d vs %d", full.BestStep, got.BestStep)
	}
}

// TestSessionSnapshotCarriesPendingTrials: a snapshot taken between a
// proposal and its report re-dispatches the trial on resume with its
// original run index.
func TestSessionSnapshotCarriesPendingTrials(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	full := runPass(t, f, newTestBO(3), 10, 1, 0)

	sess := NewSession(newTestBO(3), AsBackend(f), SessionOptions{MaxSteps: 10})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		trials, err := sess.Propose(ctx, 1)
		if err != nil || len(trials) == 0 {
			t.Fatalf("propose %d: %v", i, err)
		}
		tr := trials[0]
		if err := sess.Report(tr, f.Run(tr.Config, tr.RunIndex)); err != nil {
			t.Fatal(err)
		}
	}
	// Propose the 6th trial but snapshot before reporting it.
	trials, err := sess.Propose(ctx, 1)
	if err != nil || len(trials) != 1 {
		t.Fatalf("propose pending: %v", err)
	}
	st := sess.Snapshot()
	if len(st.Pending) != 1 || st.Pending[0].ID != 6 {
		t.Fatalf("snapshot pending = %+v", st.Pending)
	}

	resumed, err := ResumeSession(st, newTestBO(3), AsBackend(f), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Pending(); len(got) != 1 || got[0].RunIndex != 6 {
		t.Fatalf("resumed pending = %+v", got)
	}
	res, err := resumed.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, full.Records, res.Records)
}

// TestResumeSessionRejectsDivergingStrategy: replay cross-checks the
// regenerated configurations, so resuming with the wrong seed fails
// loudly instead of silently corrupting the run.
func TestResumeSessionRejectsDivergingStrategy(t *testing.T) {
	f := testEval(testTopo())
	sess := NewSession(newTestBO(7), AsBackend(f), SessionOptions{MaxSteps: 6})
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(sess.Snapshot(), newTestBO(8), AsBackend(f), SessionOptions{}); err == nil {
		t.Fatal("resume with a different seed should fail the replay cross-check")
	}
}

// TestSessionReportUnknownTrial rejects results for trials the session
// never proposed (or already consumed).
func TestSessionReportUnknownTrial(t *testing.T) {
	f := testEval(testTopo())
	sess := NewSession(newTestBO(1), AsBackend(f), SessionOptions{MaxSteps: 4})
	if err := sess.Report(Trial{ID: 99}, storm.Result{}); err == nil {
		t.Fatal("expected error for unknown trial")
	}
	trials, err := sess.Propose(context.Background(), 1)
	if err != nil || len(trials) != 1 {
		t.Fatal("propose failed")
	}
	if err := sess.Report(trials[0], storm.Result{Throughput: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Report(trials[0], storm.Result{Throughput: 1}); err == nil {
		t.Fatal("double report should fail")
	}
}

// TestSessionEmitsEvents checks the typed event stream of a sequential
// driver run: started/completed per trial, NewBest on improvements, one
// PassCompleted at the end.
func TestSessionEmitsEvents(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	var started, completed, newBest, passDone int
	lastCompleted := 0
	obs := ObserverFunc(func(e Event) {
		switch ev := e.(type) {
		case TrialStarted:
			started++
			if ev.Trial.ID != started {
				t.Errorf("TrialStarted id %d at position %d", ev.Trial.ID, started)
			}
		case TrialCompleted:
			completed++
			lastCompleted = ev.Trial.ID
		case NewBest:
			newBest++
			if ev.Trial.ID != lastCompleted {
				t.Errorf("NewBest for trial %d before its TrialCompleted", ev.Trial.ID)
			}
		case PassCompleted:
			passDone++
			if ev.Steps != completed {
				t.Errorf("PassCompleted.Steps = %d, completed %d", ev.Steps, completed)
			}
			if !ev.Found {
				t.Error("PassCompleted.Found = false on a healthy run")
			}
		}
	})
	sess := NewSession(newTestBO(2), AsBackend(f), SessionOptions{MaxSteps: 8, Observer: obs})
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if started != 8 || completed != 8 {
		t.Fatalf("started %d completed %d, want 8/8", started, completed)
	}
	if newBest == 0 {
		t.Fatal("no NewBest events")
	}
	if passDone != 1 {
		t.Fatalf("PassCompleted emitted %d times", passDone)
	}
}

// TestSessionRunHonorsCancellation: a cancelled context stops the
// driver promptly, surfaces ctx.Err(), and keeps the partial records.
func TestSessionRunHonorsCancellation(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	obs := ObserverFunc(func(e Event) {
		if _, ok := e.(TrialCompleted); ok {
			n++
			if n == 3 {
				cancel()
			}
		}
	})
	sess := NewSession(newTestBO(2), AsBackend(f), SessionOptions{MaxSteps: 50, Observer: obs})
	res, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("cancelled after 3 completions but kept %d records", len(res.Records))
	}
}

// trackingEval counts evaluator runs and the peak number running
// concurrently.
type trackingEval struct {
	inner    storm.Evaluator
	runs     atomic.Int32
	inflight atomic.Int32
	peak     atomic.Int32
}

func (e *trackingEval) Run(cfg storm.Config, runIndex int) storm.Result {
	e.runs.Add(1)
	cur := e.inflight.Add(1)
	for {
		p := e.peak.Load()
		if cur <= p || e.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	defer e.inflight.Add(-1)
	return e.inner.Run(cfg, runIndex)
}

func (e *trackingEval) Metric() storm.Metric { return e.inner.Metric() }

// TestResumedRunHonorsCancelledContext: a resumed session with carried
// pending trials must not evaluate any of them under a context that is
// already cancelled (they may be real cluster deployments).
func TestResumedRunHonorsCancelledContext(t *testing.T) {
	f := testEval(testTopo())
	sess := NewSession(newTestBO(5), nil, SessionOptions{MaxSteps: 8})
	if _, err := sess.Propose(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	st := sess.Snapshot()

	tracked := &trackingEval{inner: f}
	resumed, err := ResumeSession(st, newTestBO(5), AsBackend(tracked), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (TuneResult, error){
		"Run":      func() (TuneResult, error) { return resumed.Run(ctx) },
		"RunBatch": func() (TuneResult, error) { return resumed.RunBatch(ctx, 2) },
		"RunAsync": func() (TuneResult, error) { return resumed.RunAsync(ctx, 2) },
	} {
		if _, err := run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if n := tracked.runs.Load(); n != 0 {
			t.Fatalf("%s evaluated %d carried trials under a cancelled context", name, n)
		}
	}
	if got := resumed.Pending(); len(got) != 3 {
		t.Fatalf("pending trials lost: %d left, want 3", len(got))
	}
}

// TestResumedRunBatchChunksCarryToQ: carried pending trials are
// re-dispatched in rounds of at most q, not as one oversized barrier.
func TestResumedRunBatchChunksCarryToQ(t *testing.T) {
	f := testEval(testTopo())
	sess := NewSession(newTestBO(6), nil, SessionOptions{MaxSteps: 5})
	if _, err := sess.Propose(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	tracked := &trackingEval{inner: f}
	resumed, err := ResumeSession(sess.Snapshot(), newTestBO(6), AsBackend(tracked), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.RunBatch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("completed %d records, want 5", len(res.Records))
	}
	if p := tracked.peak.Load(); p > 2 {
		t.Fatalf("carry dispatched %d trials concurrently, q=2", p)
	}
}

// TestResumedRunBatchMatchesAskTellRounds: carried trials are
// re-dispatched in rounds of at most q that are never topped up with
// fresh proposals — 3 carried trials at q=2 run as rounds {1,2} and {3}
// before the first Propose(2), so the proposals match the hand-driven
// rounds record for record.
func TestResumedRunBatchMatchesAskTellRounds(t *testing.T) {
	f := testEval(testTopo())
	const steps, q = 9, 2
	ctx := context.Background()
	report := func(sess *Session, trials []Trial) {
		for _, tr := range trials {
			if err := sess.Report(tr, f.Run(tr.Config, tr.RunIndex)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := NewSession(newTestBO(11), nil, SessionOptions{MaxSteps: steps})
	carried, err := want.Propose(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	report(want, carried[:2])
	report(want, carried[2:])
	for {
		trials, err := want.Propose(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) == 0 {
			break
		}
		report(want, trials)
	}

	half := NewSession(newTestBO(11), nil, SessionOptions{MaxSteps: steps})
	if _, err := half.Propose(ctx, 3); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(half.Snapshot(), newTestBO(11), AsBackend(f), SessionOptions{MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunBatch(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, want.Result().Records, got.Records)
}

// TestSessionProposeFillIsAtomic: concurrent ProposeFill callers never
// jointly exceed the in-flight cap.
func TestSessionProposeFillIsAtomic(t *testing.T) {
	sess := NewSession(newTestBO(2), nil, SessionOptions{MaxSteps: 40})
	const fill = 3
	var wg sync.WaitGroup
	issued := make([][]Trial, 8)
	for i := range issued {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trials, err := sess.ProposeFill(context.Background(), fill)
			if err != nil {
				t.Error(err)
			}
			issued[i] = trials
		}(i)
	}
	wg.Wait()
	total := 0
	for _, ts := range issued {
		total += len(ts)
	}
	if total > fill {
		t.Fatalf("concurrent ProposeFill issued %d trials, cap %d", total, fill)
	}
	if got := len(sess.Pending()); got != total {
		t.Fatalf("pending %d != issued %d", got, total)
	}
}

// TestSessionRunBatchMatchesAskTellBatches: the barrier driver is the
// ask/tell loop in rounds of q — proposing q trials, then reporting
// every one before the next round must give identical records.
func TestSessionRunBatchMatchesAskTellBatches(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	want := runPass(t, f, newTestBO(5), 12, 3, 0)
	sess := NewSession(newTestBO(5), nil, SessionOptions{MaxSteps: 12})
	ctx := context.Background()
	for {
		trials, err := sess.Propose(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(trials) == 0 {
			break
		}
		for _, tr := range trials {
			if err := sess.Report(tr, f.Run(tr.Config, tr.RunIndex)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameRecords(t, want.Records, sess.Result().Records)
}

// TestSessionDecisionTimes: per-record decision time stays comparable
// between drivers (amortized over the batch).
func TestSessionDecisionTimes(t *testing.T) {
	f := testEval(testTopo())
	sess := NewSession(newTestBO(6), AsBackend(f), SessionOptions{MaxSteps: 6})
	res, err := sess.RunBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, r := range res.Records {
		total += r.Decision
	}
	if total <= 0 {
		t.Fatal("no decision time recorded")
	}
}
