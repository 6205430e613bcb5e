package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stormtune/internal/cluster"
	"stormtune/internal/storm"
)

// tinySpec is a cluster too small to place anything beyond the first
// few hint levels.
func tinySpec() cluster.Spec {
	return cluster.Spec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 4, ThrashTasksPerCore: 4}
}

// flakyBackend wraps a backend and fails the first failures evaluation
// attempts of every selected trial with an error, then lets the wrapped
// backend answer — the "measurement lost N times, then the cluster
// recovers" shape the retry policy exists for. A nil match selects
// every trial.
type flakyBackend struct {
	inner    Backend
	failures int
	match    func(tr Trial) bool

	mu    sync.Mutex
	seen  map[int]int // trial ID → failed attempts so far
	fails int
}

func newFlaky(inner Backend, failures int, match func(Trial) bool) *flakyBackend {
	return &flakyBackend{inner: inner, failures: failures, match: match, seen: map[int]int{}}
}

func (f *flakyBackend) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	if f.match == nil || f.match(tr) {
		f.mu.Lock()
		if f.seen[tr.ID] < f.failures {
			f.seen[tr.ID]++
			f.fails++
			f.mu.Unlock()
			return storm.Result{}, fmt.Errorf("flaky: trial %d attempt %d lost", tr.ID, tr.Attempt)
		}
		f.mu.Unlock()
	}
	return f.inner.Run(ctx, tr)
}

// eventCounter tallies failure/retry events; safe for concurrent emit.
type eventCounter struct {
	mu        sync.Mutex
	failed    int
	permanent int
	retried   int
	retriedAt []int // attempt numbers announced by TrialRetried
}

func (c *eventCounter) OnEvent(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev := e.(type) {
	case TrialFailed:
		c.failed++
		if ev.Permanent {
			c.permanent++
		}
	case TrialRetried:
		c.retried++
		c.retriedAt = append(c.retriedAt, ev.Attempt)
	}
}

// TestRetryFlakyBackendMatchesCleanRun: a backend that loses the first
// two measurements of every trial, under MaxAttempts 3, produces the
// exact records of a never-failing run — the retry re-dispatches the
// same RunIndex, so the recovered measurement is the same draw.
func TestRetryFlakyBackendMatchesCleanRun(t *testing.T) {
	tp := testTopo()
	want := runPass(t, testEval(tp), newTestBO(9), 8, 1, 0)

	flaky := newFlaky(AsBackend(testEval(tp)), 2, nil)
	counter := &eventCounter{}
	sess := NewSession(newTestBO(9), flaky, SessionOptions{
		MaxSteps: 8,
		Retry:    RetryPolicy{MaxAttempts: 3},
		Observer: counter,
	})
	got, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, want.Records, got.Records)
	if counter.failed != 16 || counter.permanent != 0 {
		t.Fatalf("TrialFailed = %d (permanent %d), want 16 transient", counter.failed, counter.permanent)
	}
	if counter.retried != 16 {
		t.Fatalf("TrialRetried = %d, want 16", counter.retried)
	}
	for _, r := range got.Records {
		if r.Result.Failure == storm.FailureEvaluation {
			t.Fatalf("a successful retry must not record an evaluation failure: %+v", r.Result)
		}
	}
}

// TestPermanentFailureObservedPessimistically: when the retry budget is
// spent the session records a typed FailureEvaluation result — a
// pessimistic observation, not a silent zero — emits TrialFailed with
// Permanent, keeps tuning, and Best() excludes the failed step.
func TestPermanentFailureObservedPessimistically(t *testing.T) {
	tp := testTopo()
	flaky := newFlaky(AsBackend(testEval(tp)), 1000, func(tr Trial) bool { return tr.ID == 3 })
	counter := &eventCounter{}
	sess := NewSession(newTestBO(5), flaky, SessionOptions{
		MaxSteps: 8,
		Retry:    RetryPolicy{MaxAttempts: 2},
		Observer: counter,
	})
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("session stalled at %d records, want 8", len(res.Records))
	}
	rec := res.Records[2]
	if rec.Step != 3 || !rec.Result.Failed {
		t.Fatalf("step 3 should be the failed record: %+v", rec)
	}
	if rec.Result.Failure != storm.FailureEvaluation {
		t.Fatalf("failure = %q, want %q", rec.Result.Failure, storm.FailureEvaluation)
	}
	if rec.Result.Error == "" {
		t.Fatal("failed record should carry the evaluation error")
	}
	if counter.permanent != 1 {
		t.Fatalf("permanent TrialFailed = %d, want 1", counter.permanent)
	}
	if counter.retried != 1 {
		t.Fatalf("TrialRetried = %d, want 1 (MaxAttempts 2)", counter.retried)
	}
	if best, ok := res.Best(); !ok || best.Step == 3 {
		t.Fatalf("best = %+v (ok=%v); must exclude the failed step", best, ok)
	}
}

// TestBOObservesFailureAsZero pins the optimizer's pessimistic
// handling: a typed failed result must influence the surrogate exactly
// like a zero-throughput measurement, steering the search away without
// corrupting it.
func TestBOObservesFailureAsZero(t *testing.T) {
	a, b := newTestBO(11), newTestBO(11)
	ca, _ := a.Next()
	cb, _ := b.Next()
	if ca.Fingerprint() != cb.Fingerprint() {
		t.Fatal("identical strategies must propose identically")
	}
	a.Observe(ca, storm.FailedResult(storm.FailureEvaluation, "lost"))
	b.Observe(cb, storm.Result{Throughput: 0})
	na, _ := a.Next()
	nb, _ := b.Next()
	if na.Fingerprint() != nb.Fingerprint() {
		t.Fatal("a failed observation must act as a zero-throughput observation")
	}
}

// TestPermanentFailuresDoNotTripStoppingRule: StopAfterZeros reacts to
// measured zero performance; pessimistic FailureEvaluation stand-ins
// are lost measurements and must not let an infrastructure outage
// permanently stop the session (the stopped flag survives snapshots).
func TestPermanentFailuresDoNotTripStoppingRule(t *testing.T) {
	tp := testTopo()
	dead := newFlaky(AsBackend(testEval(tp)), 1000, nil) // every trial lost forever
	sess := NewSession(newTestBO(5), dead, SessionOptions{
		MaxSteps:       6,
		StopAfterZeros: 3,
		Retry:          RetryPolicy{MaxAttempts: 2},
	})
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("lost measurements must not trip the zeros rule: ran %d of 6", len(res.Records))
	}
	if sess.Done() != true {
		t.Fatal("budget exhausted, session should be done")
	}
	// Genuine measured zeros (placement failures) still trip it: a
	// cluster too small for any config stops a PLA-style session early.
	small := storm.NewFluidSim(tp, tinySpec(), storm.SinkTuples, 1)
	small.Noise = storm.NoNoise()
	plaSess := NewSession(NewPLA(tp, storm.DefaultSyntheticConfig(tp, 1)), AsBackend(small), SessionOptions{
		MaxSteps:       60,
		StopAfterZeros: 3,
	})
	plaRes, err := plaSess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(plaRes.Records) >= 60 {
		t.Fatalf("measured zeros must still stop the session, ran %d", len(plaRes.Records))
	}
}

// TestCancellationMidRetryKeepsTrialPending: cancelling the session
// during a retry backoff must not fabricate a pessimistic record — the
// trial stays pending (attempt count preserved) for a snapshot/resume.
func TestCancellationMidRetryKeepsTrialPending(t *testing.T) {
	tp := testTopo()
	dead := newFlaky(AsBackend(testEval(tp)), 1000, nil)
	ctx, cancel := context.WithCancel(context.Background())
	obs := ObserverFunc(func(e Event) {
		if _, ok := e.(TrialRetried); ok {
			cancel() // mid-retry: the backoff select sees the cancellation
		}
	})
	sess := NewSession(newTestBO(5), dead, SessionOptions{
		MaxSteps: 8,
		Retry:    RetryPolicy{MaxAttempts: 10, Backoff: time.Minute},
		Observer: obs,
	})
	start := time.Now()
	res, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; the backoff must not be slept out", d)
	}
	if len(res.Records) != 0 {
		t.Fatalf("cancelled retry produced %d records, want none", len(res.Records))
	}
	pend := sess.Pending()
	if len(pend) != 1 {
		t.Fatalf("pending = %d trials, want the retrying one", len(pend))
	}
	if pend[0].Attempt != 1 {
		t.Fatalf("pending attempt = %d, want 1 started attempt", pend[0].Attempt)
	}
}

// TestSnapshotResumeMidRetry: a snapshot taken while a trial is in the
// retrying state carries its consumed attempts; the resumed session
// re-dispatches it with the remaining budget and — because the retry
// re-uses the trial's RunIndex — completes bit-identically to a run
// that never failed.
func TestSnapshotResumeMidRetry(t *testing.T) {
	tp := testTopo()
	full := runPass(t, testEval(tp), newTestBO(7), 10, 1, 0)

	// First process: trial 4's measurement is lost; cancel during the
	// retry backoff, snapshot, and "restart".
	flaky := newFlaky(AsBackend(testEval(tp)), 1000, func(tr Trial) bool { return tr.ID == 4 })
	ctx, cancel := context.WithCancel(context.Background())
	obs := ObserverFunc(func(e Event) {
		if _, ok := e.(TrialRetried); ok {
			cancel()
		}
	})
	sess := NewSession(newTestBO(7), flaky, SessionOptions{
		MaxSteps: 10,
		Retry:    RetryPolicy{MaxAttempts: 3, Backoff: time.Minute},
		Observer: obs,
	})
	if _, err := sess.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := sess.Snapshot()
	if len(st.Pending) != 1 || st.Pending[0].ID != 4 || st.Pending[0].Attempt != 1 {
		t.Fatalf("snapshot pending = %+v, want trial 4 with 1 consumed attempt", st.Pending)
	}
	if st.Retry.MaxAttempts != 3 {
		t.Fatalf("snapshot lost the retry policy: %+v", st.Retry)
	}

	// Second process: the cluster recovered. The carried trial must be
	// re-dispatched first, with its attempt budget continuing at 2.
	var attempts []int
	probe := backendFunc(func(ctx context.Context, tr Trial) (storm.Result, error) {
		if tr.ID == 4 {
			attempts = append(attempts, tr.Attempt)
		}
		return AsBackend(testEval(tp)).Run(ctx, tr)
	})
	resumed, err := ResumeSession(st, newTestBO(7), probe, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, full.Records, got.Records)
	if len(attempts) != 1 || attempts[0] != 2 {
		t.Fatalf("resumed trial 4 ran attempts %v, want the single attempt 2", attempts)
	}
}

// TestInterruptedAttemptBurnsNoRetryBudget: cancelling a session while
// an attempt is in flight (no failure) must not consume retry budget —
// repeated pause/resume cycles would otherwise drain it to zero.
func TestInterruptedAttemptBurnsNoRetryBudget(t *testing.T) {
	tp := testTopo()
	ctx, cancel := context.WithCancel(context.Background())
	hanging := backendFunc(func(runCtx context.Context, tr Trial) (storm.Result, error) {
		cancel() // the session is cancelled while this attempt runs
		<-runCtx.Done()
		return storm.Result{}, runCtx.Err()
	})
	sess := NewSession(newTestBO(5), hanging, SessionOptions{
		MaxSteps: 4,
		Retry:    RetryPolicy{MaxAttempts: 2},
	})
	if _, err := sess.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := sess.Snapshot()
	if len(st.Pending) != 1 || st.Pending[0].Attempt != 0 {
		t.Fatalf("snapshot pending = %+v; an interrupted attempt must consume no budget", st.Pending)
	}

	// Resume: the trial still has its full two attempts — one transient
	// failure must be retried, not recorded as permanent.
	flaky := newFlaky(AsBackend(testEval(tp)), 1, nil)
	resumed, err := ResumeSession(st, newTestBO(5), flaky, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Result.Failure == storm.FailureEvaluation {
			t.Fatalf("transient failure after resume recorded as permanent: %+v", r.Result)
		}
	}
}

// backendFunc adapts a function to Backend for test probes.
type backendFunc func(ctx context.Context, tr Trial) (storm.Result, error)

func (f backendFunc) Run(ctx context.Context, tr Trial) (storm.Result, error) { return f(ctx, tr) }

// TestTrialTimeoutRetriesThenFails: a backend that blocks past the
// per-trial deadline is treated as a lost measurement — retried, then
// failed permanently — while the session keeps its own context.
func TestTrialTimeoutRetriesThenFails(t *testing.T) {
	tp := testTopo()
	slow := backendFunc(func(ctx context.Context, tr Trial) (storm.Result, error) {
		if tr.ID == 2 {
			<-ctx.Done() // blocks until the trial deadline
			return storm.Result{}, ctx.Err()
		}
		return AsBackend(testEval(tp)).Run(ctx, tr)
	})
	counter := &eventCounter{}
	sess := NewSession(newTestBO(3), slow, SessionOptions{
		MaxSteps:     4,
		Retry:        RetryPolicy{MaxAttempts: 2},
		TrialTimeout: 20 * time.Millisecond,
		Observer:     counter,
	})
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("ran %d records, want 4", len(res.Records))
	}
	rec := res.Records[1]
	if !rec.Result.Failed || rec.Result.Failure != storm.FailureEvaluation {
		t.Fatalf("timed-out trial should fail as evaluation: %+v", rec.Result)
	}
	if counter.permanent != 1 || counter.retried != 1 {
		t.Fatalf("events: permanent=%d retried=%d, want 1/1", counter.permanent, counter.retried)
	}
}

// TestRunBatchRetriesConcurrently: the barrier driver applies the retry
// policy per trial without losing determinism of the record set.
func TestRunBatchRetriesConcurrently(t *testing.T) {
	tp := testTopo()
	want := runPass(t, testEval(tp), newTestBO(6), 9, 3, 0)

	flaky := newFlaky(AsBackend(testEval(tp)), 1, nil)
	sess := NewSession(newTestBO(6), flaky, SessionOptions{
		MaxSteps: 9,
		Retry:    RetryPolicy{MaxAttempts: 2},
	})
	got, err := sess.RunBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, want.Records, got.Records)
}

// TestPoolBackendDistributes: the pool borrows one member per in-flight
// trial, so concurrent drivers use every worker without doubling up on
// one.
func TestPoolBackendDistributes(t *testing.T) {
	tp := testTopo()
	var calls [2]atomic.Int32
	member := func(i int) Backend {
		return backendFunc(func(ctx context.Context, tr Trial) (storm.Result, error) {
			calls[i].Add(1)
			time.Sleep(time.Millisecond)
			return AsBackend(testEval(tp)).Run(ctx, tr)
		})
	}
	pool, err := NewPoolBackend(member(0), member(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(newTestBO(4), pool, SessionOptions{MaxSteps: 8})
	res, err := sess.RunAsync(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("ran %d records, want 8", len(res.Records))
	}
	total := calls[0].Load() + calls[1].Load()
	if total != 8 {
		t.Fatalf("pool dispatched %d runs, want 8", total)
	}
	if calls[0].Load() == 0 || calls[1].Load() == 0 {
		t.Fatalf("pool left a worker idle: %d/%d", calls[0].Load(), calls[1].Load())
	}
}

// TestRetryPolicyDelay pins the exponential backoff schedule: each
// retry doubles the wait, uncapped.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Backoff: 100 * time.Millisecond}
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{1, 0},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{4, 400 * time.Millisecond},
		{5, 800 * time.Millisecond},
	} {
		if got := p.delay(tc.attempt); got != tc.want {
			t.Fatalf("delay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	if (RetryPolicy{}).maxAttempts() != 1 {
		t.Fatal("zero policy must mean exactly one attempt")
	}
}
