package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stormtune/internal/scheduler"
	"stormtune/internal/storm"
)

// Trial is one proposed-but-not-yet-reported configuration evaluation.
// ID is the 1-based issue order within the session and doubles as the
// record step; RunIndex is the evaluator run index the trial must be
// measured with so that repeated measurements and resumed sessions draw
// the same noise.
type Trial struct {
	ID       int
	Config   storm.Config
	RunIndex int
	// Attempt: on a trial handed to Backend.Run, the 1-based evaluation
	// attempt this dispatch is; on a pending/snapshotted trial, the
	// failed attempts consumed so far — a resumed session continues the
	// retry budget where it left off (interrupted-but-not-failed
	// attempts burn nothing).
	Attempt int
	// Timeout is the trial's evaluation deadline (zero = none): drivers
	// cancel the context passed to Backend.Run when it expires, and
	// remote backends forward it so the server abandons the run too.
	Timeout time.Duration
	// Decision is the optimizer decision time attributed to this trial
	// (a batch's decision time amortized over the batch).
	Decision time.Duration
	// SimTime is the simulated timestamp (seconds) the trial is
	// measured at, stamped from SessionOptions.Clock at proposal time.
	// Zero when the session has no clock — stationary evaluators
	// ignore it, and storm.TimedEvaluator backends measure drifting
	// workloads at this instant.
	SimTime float64
	// Fingerprint is the tuned topology's structural hash (hex), stamped
	// from SessionOptions.Fingerprint at proposal time. Remote backends
	// send it as the routing key so a multi-tenant worker evaluates the
	// trial against the right registered topology; empty routes only to
	// single-topology workers. It is not part of the persisted trial
	// state — resumed sessions re-stamp it from their options.
	Fingerprint string
}

// SimClock supplies the simulated timestamp stamped onto proposed
// trials. Implementations must be safe for concurrent use; the watch
// controller advances its clock from observer callbacks, never from
// the wall clock, so sessions stay deterministic.
type SimClock interface {
	Now() float64
}

// SessionOptions configure a tuning session.
type SessionOptions struct {
	// MaxSteps is the evaluation budget — the total number of trials the
	// session will issue (default 60).
	MaxSteps int
	// StopAfterZeros stops the session after this many consecutive
	// zero-performance reports; 0 disables.
	StopAfterZeros int
	// RunOffset shifts evaluator run indices (protocol passes use it to
	// decorrelate noise draws between passes).
	RunOffset int
	// Retry governs evaluation failures (Backend.Run errors): how often
	// a trial is re-attempted and with what backoff before the session
	// gives up and records a pessimistic observation. The zero value
	// never retries.
	Retry RetryPolicy
	// TrialTimeout bounds each evaluation attempt's wall-clock; trials
	// carry it as their deadline. Zero means unbounded.
	TrialTimeout time.Duration
	// Observer receives the session's typed events; nil disables.
	Observer Observer
	// Clock stamps proposed trials with a simulated timestamp
	// (Trial.SimTime); nil stamps zero. Continuous-tuning sessions over
	// drifting workloads set it so the same configuration measured at
	// different times sees different load.
	Clock SimClock
	// Fingerprint is the tuned topology's structural hash (hex); every
	// proposed trial carries it (Trial.Fingerprint) so routing backends
	// can match it against multi-tenant workers. Empty disables routing.
	Fingerprint string
}

// ErrNoBackend is returned by the drivers of a session constructed
// without a backend (pure ask/tell use).
var ErrNoBackend = errors.New("core: session has no backend; drive it via Propose/Report")

// Session is an interruptible ask/tell tuning run: Propose hands out
// trials, Report feeds measurements back, and the Run/RunBatch/RunAsync
// drivers automate the loop against a Backend — retrying lost
// evaluations per the RetryPolicy and recording pessimistic
// observations when a trial permanently fails. All methods are safe for
// concurrent use; the built-in drivers report results from a single
// goroutine so their record order is deterministic for a fixed seed
// (RunAsync: fixed seed and completion order).
type Session struct {
	mu    sync.Mutex
	strat Strategy
	bk    Backend
	opts  SessionOptions

	// obsMu serializes observer callbacks: concurrent drivers evaluate
	// several trials at once and their retry events may interleave, but
	// each callback runs alone.
	obsMu sync.Mutex

	issued    int
	records   []RunRecord
	pending   []Trial
	ops       []SessionOp
	zeros     int
	best      float64
	bestStep  int
	stopped   bool
	exhausted bool
}

// NewSession starts a session for a strategy. bk may be nil when the
// caller drives evaluations itself through Propose/Report — e.g.
// against a real external cluster.
func NewSession(strat Strategy, bk Backend, opts SessionOptions) *Session {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 60
	}
	return &Session{strat: strat, bk: bk, opts: opts}
}

// Strategy returns the session's strategy.
func (s *Session) Strategy() Strategy { return s.strat }

// UpdateStrategy runs fn with the strategy under the session lock —
// the safe way for an outside coordinator (fleet incumbent sharing) to
// read or adjust a strategy that a concurrent driver is using. fn must
// not call other session methods.
func (s *Session) UpdateStrategy(fn func(Strategy)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.strat)
}

// BestSoFar returns the best successful throughput reported so far and
// the step that achieved it; ok is false before the first success.
func (s *Session) BestSoFar() (y float64, step int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best, s.bestStep, s.bestStep > 0
}

// emit dispatches events outside the state lock. Callbacks are
// serialized (obsMu) and a multi-event batch is delivered atomically.
func (s *Session) emit(evs ...Event) {
	if s.opts.Observer == nil {
		return
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	for _, e := range evs {
		//lint:emitnolock obsMu is the dedicated dispatch-serialization lock; it is never
		// taken while the state lock (mu) is held, so a callback re-entering the session
		// cannot deadlock — this is the one place the emit contract is implemented.
		s.opts.Observer.OnEvent(e)
	}
}

// Emit forwards an event to the session's observer; the drivers layered
// on top (and the public Tuner) use it for their own notifications.
func (s *Session) Emit(e Event) { s.emit(e) }

// AppendObserver chains obs after the session's current observer:
// every event is delivered to the existing observer first, then to
// obs. Order matters — the fleet log appends itself after a member's
// Recorder so that, by the time the log's callback runs, the recorder
// already holds the event and a Snapshot taken from the callback
// includes it. Call it before driving the session; it is not safe
// concurrently with emits.
func (s *Session) AppendObserver(obs Observer) {
	s.opts.Observer = MultiObserver(s.opts.Observer, obs)
}

// Propose asks the strategy for up to n new trials. It returns fewer —
// possibly none — when the remaining budget is smaller, the strategy is
// exhausted, or the zero-performance stopping rule has fired; an empty
// result with a nil error means the session has nothing left to
// propose. The only error is ctx's.
func (s *Session) Propose(ctx context.Context, n int) ([]Trial, error) {
	return s.propose(ctx, n, false)
}

// ProposeFill asks for enough new trials to top the in-flight set up to
// fill. The free-slot computation happens under the session lock, so
// concurrent callers cannot jointly over-issue past fill.
func (s *Session) ProposeFill(ctx context.Context, fill int) ([]Trial, error) {
	return s.propose(ctx, fill, true)
}

func (s *Session) propose(ctx context.Context, n int, fillPending bool) ([]Trial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.stopped || s.exhausted {
		s.mu.Unlock()
		return nil, nil
	}
	if fillPending {
		n -= len(s.pending)
	}
	if rem := s.opts.MaxSteps - s.issued; n > rem {
		n = rem
	}
	if n <= 0 {
		s.mu.Unlock()
		return nil, nil
	}
	cfgs, dec, ok := nextBatch(s.strat, n)
	if !ok || len(cfgs) == 0 {
		s.exhausted = true
		s.mu.Unlock()
		return nil, nil
	}
	per := dec / time.Duration(len(cfgs))
	// One clock read per batch: trials proposed together measure at the
	// same simulated instant, keeping batch proposals reproducible.
	var simTime float64
	if s.opts.Clock != nil {
		simTime = s.opts.Clock.Now()
	}
	trials := make([]Trial, len(cfgs))
	evs := make([]Event, len(cfgs))
	for i, cfg := range cfgs {
		s.issued++
		trials[i] = Trial{
			ID: s.issued, Config: cfg, RunIndex: s.opts.RunOffset + s.issued,
			Timeout: s.opts.TrialTimeout, Decision: per, SimTime: simTime,
			Fingerprint: s.opts.Fingerprint,
		}
		evs[i] = TrialStarted{Trial: trials[i]}
	}
	s.pending = append(s.pending, trials...)
	s.ops = append(s.ops, SessionOp{Ask: len(cfgs)})
	s.mu.Unlock()
	s.emit(evs...)
	return trials, nil
}

// Report feeds the measured result of a proposed trial back into the
// session and the strategy. Results of a batch may arrive in any order;
// reporting a trial the session does not consider pending is an error.
func (s *Session) Report(tr Trial, res storm.Result) error {
	s.mu.Lock()
	idx := -1
	for i, p := range s.pending {
		if p.ID == tr.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		s.mu.Unlock()
		return fmt.Errorf("core: report for unknown or already-reported trial %d", tr.ID)
	}
	p := s.pending[idx]
	s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
	s.strat.Observe(p.Config, res)
	s.records = append(s.records, RunRecord{Step: p.ID, Config: p.Config, Result: res, Decision: p.Decision})
	s.ops = append(s.ops, SessionOp{Tell: p.ID})
	evs := []Event{TrialCompleted{Trial: p, Result: res}}
	if !res.Failed && res.Throughput > s.best {
		s.best = res.Throughput
		s.bestStep = p.ID
		evs = append(evs, NewBest{Trial: p, Result: res})
	}
	// The consecutive-zeros stopping rule reacts to *measured* zero
	// performance. A pessimistic FailureEvaluation record is a stand-in
	// for a lost measurement, not a measurement — it must not let an
	// infrastructure outage permanently stop the session (the stopped
	// flag survives snapshots), so it leaves the streak untouched.
	if res.Failure != storm.FailureEvaluation {
		if res.Failed || res.Throughput == 0 {
			s.zeros++
			if s.opts.StopAfterZeros > 0 && s.zeros >= s.opts.StopAfterZeros {
				s.stopped = true
			}
		} else {
			s.zeros = 0
		}
	}
	s.mu.Unlock()
	s.emit(evs...)
	return nil
}

// noteFailedAttempt records on the pending trial how many evaluation
// attempts have *failed*, so a snapshot taken while the trial is
// retrying carries exactly the retry budget consumed. An attempt that
// was merely interrupted by cancellation is not a failure and burns
// nothing — pausing and resuming a session repeatedly must not drain
// the budget.
func (s *Session) noteFailedAttempt(id, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.pending {
		if s.pending[i].ID == id {
			s.pending[i].Attempt = failed
			return
		}
	}
}

// evaluate runs one trial against the backend under the session's
// retry policy (the shared retryRun loop), emitting the failure/retry
// events. ok is false when the parent context was cancelled (or its
// deadline hit) before a result or a permanent failure was reached:
// the trial then stays pending — a snapshot carries it, consumed
// attempts included, and a resumed session re-dispatches it.
//
// A permanent failure (attempt budget spent) returns ok=true with a
// pessimistic storm.FailedResult, which the caller reports like any
// measurement: the optimizer observes zero and steers away.
func (s *Session) evaluate(ctx context.Context, tr Trial) (storm.Result, bool) {
	res, err, ok := retryRun(ctx, s.bk, tr, s.opts.Retry,
		func(ft Trial, attempt int, ferr error, permanent bool) {
			s.noteFailedAttempt(ft.ID, attempt)
			if permanent {
				s.emit(TrialFailed{Trial: ft, Attempt: attempt, Err: ferr, Permanent: true})
				return
			}
			s.emit(
				TrialFailed{Trial: ft, Attempt: attempt, Err: ferr},
				TrialRetried{Trial: ft, Attempt: attempt + 1, Backoff: s.opts.Retry.delay(attempt + 1), Err: ferr},
			)
		})
	if !ok {
		return storm.Result{}, false
	}
	if err != nil {
		return storm.FailedResult(storm.FailureEvaluation, err.Error()), true
	}
	return res, true
}

// Pending returns the trials proposed but not yet reported, in issue
// order.
func (s *Session) Pending() []Trial {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Trial(nil), s.pending...)
}

// Done reports whether the session will propose no further trials.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped || s.exhausted || s.issued >= s.opts.MaxSteps
}

// Result summarizes the session so far as a TuneResult.
func (s *Session) Result() TuneResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TuneResult{
		Strategy: s.strat.Name(),
		Records:  append([]RunRecord(nil), s.records...),
		BestStep: s.bestStep,
	}
}

// finish emits PassCompleted and returns the session summary.
func (s *Session) finish(err error) (TuneResult, error) {
	res := s.Result()
	best, found := res.Best()
	s.emit(PassCompleted{Steps: len(res.Records), Best: best, Found: found})
	return res, err
}

// Run drives the session sequentially — the paper's procedure: one
// trial at a time until the budget is spent, the strategy exhausts,
// the stopping rule fires, or ctx is cancelled (the partial result is
// returned with ctx's error; an in-flight trial stays pending for a
// snapshot to carry). It is RunAsync at one slot.
func (s *Session) Run(ctx context.Context) (TuneResult, error) {
	return s.RunAsync(ctx, 1)
}

// RunBatch drives the session in barrier batches: per round up to q
// trials are proposed together (constant-liar suggestions for BO
// strategies) and evaluated concurrently, and the round only ends when
// every trial of the batch has completed. Carried-over pending trials
// are re-dispatched first, in rounds of at most q that are never topped
// up with fresh proposals. q ≤ 1 degrades to Run.
func (s *Session) RunBatch(ctx context.Context, q int) (TuneResult, error) {
	if q <= 1 {
		return s.Run(ctx)
	}
	if s.bk == nil {
		return s.Result(), ErrNoBackend
	}
	d := s.newDispatch()
	for ctx.Err() == nil && d.firstErr() == nil {
		trials := d.take(ctx, q)
		if len(trials) == 0 {
			break
		}
		outs := make([]dispatchOutcome, len(trials))
		var wg sync.WaitGroup
		for i, tr := range trials {
			wg.Add(1)
			go func(i int, tr Trial) {
				defer wg.Done()
				outs[i] = d.run(ctx, tr)
			}(i, tr)
		}
		wg.Wait()
		// Report in trial order for deterministic records; cancelled
		// evaluations stay pending.
		for i, tr := range trials {
			d.report(tr, outs[i])
		}
	}
	err := ctx.Err()
	if err == nil {
		err = d.firstErr()
	}
	return s.finish(err)
}

// dispatchSource is the per-trial plumbing every driver shares — Run
// and RunAsync through scheduler.Shared, RunBatch round by round, and
// the fleet: carried-over pending trials are handed out first
// (re-emitting TrialStarted so observers primed from a snapshot move
// them out of "pending"), fresh trials are proposed on demand,
// evaluation goes through the session's retry loop, and reporting
// captures the first error and stops issuing on cancellation. The
// take/nextOne and report methods are called from a single driver
// goroutine; only run executes concurrently.
type dispatchSource struct {
	s     *Session
	carry []Trial
	err   error
}

func (s *Session) newDispatch() *dispatchSource {
	return &dispatchSource{s: s, carry: s.Pending()}
}

// dispatchOutcome is one evaluation's result; ok is false when the
// evaluation was interrupted by cancellation (the trial stays pending).
type dispatchOutcome struct {
	res storm.Result
	ok  bool
}

// take hands out up to n trials. Carried-over pending trials go first,
// and a round of them is never topped up with fresh proposals; once
// the carry is spent, it proposes up to n fresh trials. ctx is the
// driver's context, forwarded per call rather than stored so proposal
// work always observes its cancellation.
func (d *dispatchSource) take(ctx context.Context, n int) []Trial {
	if len(d.carry) == 0 {
		// Propose fails only with ctx's error, which the driver surfaces.
		trials, _ := d.s.Propose(ctx, n)
		return trials
	}
	if n > len(d.carry) {
		n = len(d.carry)
	}
	out := d.carry[:n]
	d.carry = d.carry[n:]
	evs := make([]Event, n)
	for i, tr := range out {
		evs[i] = TrialStarted{Trial: tr}
	}
	d.s.emit(evs...)
	return out
}

// nextOne hands out the session's next trial — take(1), in the
// scheduler's one-grant-at-a-time shape; ok is false when nothing
// further can be issued (budget spent, strategy exhausted, stopping
// rule fired, or the context is done).
func (d *dispatchSource) nextOne(ctx context.Context) (Trial, bool) {
	out := d.take(ctx, 1)
	if len(out) == 0 {
		return Trial{}, false
	}
	return out[0], true
}

// run evaluates one trial under the session's retry policy.
func (d *dispatchSource) run(ctx context.Context, tr Trial) dispatchOutcome {
	res, ok := d.s.evaluate(ctx, tr)
	return dispatchOutcome{res: res, ok: ok}
}

// report feeds a completed evaluation back; returning false stops the
// driver from issuing further trials to this session. A cancelled
// evaluation leaves its trial pending for a snapshot to carry; the
// driver surfaces ctx.Err().
func (d *dispatchSource) report(tr Trial, o dispatchOutcome) bool {
	if !o.ok {
		return false
	}
	if err := d.s.Report(tr, o.res); err != nil {
		if d.err == nil {
			d.err = err
		}
		return false
	}
	return true
}

// firstErr returns the first report error, if any; call it from the
// driver goroutine, or after the dispatch loop has returned.
func (d *dispatchSource) firstErr() error { return d.err }

// RunAsync drives the session with free-slot refill: up to q trials run
// concurrently and the moment any one completes its result is reported
// and a replacement proposed, so a slow trial never idles the other
// slots — the advantage over RunBatch grows with the variance of trial
// durations. Results are deterministic given the seed and the order in
// which evaluations complete; at q ≤ 1 the driver is Run.
func (s *Session) RunAsync(ctx context.Context, q int) (TuneResult, error) {
	if s.bk == nil {
		return s.Result(), ErrNoBackend
	}
	d := s.newDispatch()
	err := scheduler.Shared(ctx, q, []scheduler.SharedSource[Trial, dispatchOutcome]{
		{Next: d.nextOne, Run: d.run, Done: d.report},
	})
	if err == nil {
		err = d.firstErr()
	}
	return s.finish(err)
}
