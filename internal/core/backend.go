package core

import (
	"context"
	"errors"
	"time"

	"stormtune/internal/storm"
)

// Backend evaluates trials. It is the session's view of whatever runs
// the measurements — the bundled simulators (via AsBackend), a remote
// evaluation service, or a caller's own cluster harness.
//
// Run must honor ctx: the session passes a context carrying its
// cancellation and, when the trial has a deadline (Trial.Timeout), that
// deadline. The two return paths mean different things:
//
//   - (Result, nil): the measurement happened. A Result with Failed set
//     is still a valid observation — the configuration performs at zero
//     (e.g. the scheduler could not place it) — and is fed to the
//     optimizer as such.
//   - (_, error): the measurement was lost — timeout, dropped
//     connection, crashed worker. Nothing was observed; the session's
//     RetryPolicy decides whether to retry the trial or give up and
//     record a pessimistic storm.FailedResult.
//
// Run must be safe for concurrent use: the batch and async drivers
// evaluate several trials at once.
type Backend interface {
	Run(ctx context.Context, tr Trial) (storm.Result, error)
}

// EvaluatorBackend adapts a storm.Evaluator — both simulators, and any
// wrapper like storm.Averaged or storm.Jittered — to the Backend
// contract. The evaluator cannot be interrupted mid-measurement, so
// cancellation is checked before the run starts; simulator runs are
// fast enough that this is where cancellation matters.
type EvaluatorBackend struct {
	Ev storm.Evaluator
}

// AsBackend wraps an evaluator as a Backend; a nil evaluator yields a
// nil Backend (an ask/tell-only session).
func AsBackend(ev storm.Evaluator) Backend {
	if ev == nil {
		return nil
	}
	return &EvaluatorBackend{Ev: ev}
}

// Run implements Backend. An evaluator that understands simulated time
// (storm.TimedEvaluator — drifting workloads) measures at the trial's
// SimTime; stationary evaluators ignore it.
func (b *EvaluatorBackend) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	if err := ctx.Err(); err != nil {
		return storm.Result{}, err
	}
	if te, ok := b.Ev.(storm.TimedEvaluator); ok {
		return te.RunAt(tr.Config, tr.RunIndex, tr.SimTime), nil
	}
	return b.Ev.Run(tr.Config, tr.RunIndex), nil
}

// Metric exposes the wrapped evaluator's throughput definition.
func (b *EvaluatorBackend) Metric() storm.Metric { return b.Ev.Metric() }

// RetryPolicy governs how a session handles trials whose evaluation
// errors (Backend.Run returning a non-nil error — a lost measurement,
// not a zero-performing configuration). The zero value never retries:
// the first error is permanent.
//
// After a permanent failure — the attempt budget is spent — the session
// records a pessimistic observation (storm.FailedResult with
// FailureEvaluation) so the optimizer steers away from the region
// instead of stalling, and emits TrialFailed with Permanent set.
type RetryPolicy struct {
	// MaxAttempts is the total number of evaluation attempts per trial,
	// the first try included; values below 1 mean 1 (no retries).
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// Backoff is the wait before the second attempt; each further
	// attempt doubles it, uncapped. Zero retries immediately.
	Backoff time.Duration `json:"backoffNs,omitempty"`
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// delay returns the backoff before the given attempt (2-based: the
// first retry is attempt 2).
func (p RetryPolicy) delay(attempt int) time.Duration {
	if p.Backoff <= 0 || attempt <= 1 {
		return 0
	}
	d := p.Backoff
	for i := 2; i < attempt; i++ {
		d *= 2
	}
	return d
}

// IsPermanentBackendErr reports whether the backend error declares
// itself unretryable via a `Permanent() bool` method anywhere in its
// chain — rejected credentials, a worker that does not serve the
// trial's topology. Re-sending the identical request cannot succeed,
// so the retry loop fails the trial immediately instead of burning its
// attempt budget on a foregone conclusion.
func IsPermanentBackendErr(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// isOverloadedErr detects admission-control refusals (a worker at
// capacity declined the run before evaluating) via the `Overloaded()
// bool` marker. Nothing was lost; the pool sheds the trial elsewhere.
func isOverloadedErr(err error) bool {
	var o interface{ Overloaded() bool }
	return errors.As(err, &o) && o.Overloaded()
}

// isUnreachableErr detects transport-level failures (no HTTP reply at
// all) via the `Unreachable() bool` marker; the pool's health tracking
// counts these toward member eviction.
func isUnreachableErr(err error) bool {
	var u interface{ Unreachable() bool }
	return errors.As(err, &u) && u.Unreachable()
}

// retryAfterHint extracts the server-suggested wait from an overloaded
// error (via the `RetryAfterHint() time.Duration` accessor the remote
// package's OverloadedError provides), zero when it carries none.
func retryAfterHint(err error) time.Duration {
	var r interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &r) {
		return r.RetryAfterHint()
	}
	return 0
}

// retryRun is the attempt loop shared by the session drivers and the
// protocol's best-config re-runs: evaluate tr against bk, re-attempting
// lost evaluations per policy, with each attempt bounded by the trial's
// deadline. tr.Attempt carries the failures already consumed (resumed
// trials continue their budget; an attempt interrupted by ctx burns
// nothing). onFail, when non-nil, is invoked after each failed attempt
// — before the backoff, with permanent=true when the budget is spent.
// An error that declares itself permanent (IsPermanentBackendErr) fails
// the trial on the spot: no amount of retrying fixes bad credentials or
// a worker that does not serve the topology.
//
// ok is false when ctx was cancelled before a result or a permanent
// failure was reached; otherwise err carries the permanent evaluation
// failure, if any.
func retryRun(ctx context.Context, bk Backend, tr Trial, policy RetryPolicy,
	onFail func(tr Trial, attempt int, err error, permanent bool)) (res storm.Result, err error, ok bool) {
	attempt := tr.Attempt
	for {
		attempt++
		tr.Attempt = attempt
		runCtx, cancel := trialContext(ctx, tr)
		res, err = bk.Run(runCtx, tr)
		cancel()
		if err == nil {
			return res, nil, true
		}
		if ctx.Err() != nil {
			// The caller is being cancelled: the trial was not
			// permanently lost, so no retry budget is consumed.
			return storm.Result{}, nil, false
		}
		if attempt >= policy.maxAttempts() || IsPermanentBackendErr(err) {
			if onFail != nil {
				onFail(tr, attempt, err, true)
			}
			return storm.Result{}, err, true
		}
		if onFail != nil {
			onFail(tr, attempt, err, false)
		}
		if d := policy.delay(attempt + 1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return storm.Result{}, nil, false
			case <-t.C:
			}
		}
	}
}

// trialContext derives the context one evaluation attempt runs under,
// applying the trial's deadline when set.
func trialContext(ctx context.Context, tr Trial) (context.Context, context.CancelFunc) {
	if tr.Timeout > 0 {
		return context.WithTimeout(ctx, tr.Timeout)
	}
	return context.WithCancel(ctx)
}

// The pool backend (NewPoolBackend and friends) lives in pool.go.
