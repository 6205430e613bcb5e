package core

import (
	"time"

	"stormtune/internal/storm"
)

// Event is a typed notification emitted by a tuning session. The
// concrete types are TrialStarted, TrialCompleted, TrialFailed,
// TrialRetried, NewBest, PassCompleted and ParallelismClamped; switch
// on them to react to the ones of interest.
type Event interface{ sessionEvent() }

// TrialStarted reports that a trial has been handed out for evaluation
// (by Propose or one of the drivers).
type TrialStarted struct {
	Trial Trial
}

// TrialCompleted reports that a trial's measurement was fed back into
// the session.
type TrialCompleted struct {
	Trial  Trial
	Result storm.Result
}

// TrialFailed reports that an evaluation attempt errored: the
// measurement was lost (timeout, dropped connection, crashed run), not
// merely zero. With Permanent false the session will retry the trial
// (a TrialRetried event follows); with Permanent true the retry budget
// is spent and the session records a pessimistic failed observation —
// the TrialCompleted that follows carries it.
type TrialFailed struct {
	Trial Trial
	// Attempt is the 1-based evaluation attempt that failed.
	Attempt int
	// Err is the backend's evaluation error.
	Err error
	// Permanent marks the retry budget as exhausted.
	Permanent bool
}

// TrialRetried reports that a failed trial is being re-attempted after
// the backoff elapses.
type TrialRetried struct {
	Trial Trial
	// Attempt is the 1-based attempt about to start.
	Attempt int
	// Backoff is the wait before the attempt.
	Backoff time.Duration
	// Err is the error being retried.
	Err error
}

// NewBest reports that a completed trial improved on the best
// throughput seen so far in this session.
type NewBest struct {
	Trial  Trial
	Result storm.Result
}

// PassCompleted reports that a driver (Run, RunBatch, RunAsync) has
// finished — the budget is spent, the strategy is exhausted, the
// zero-performance stopping rule fired, or the context was cancelled.
type PassCompleted struct {
	// Steps is the number of completed (reported) trials.
	Steps int
	// Best is the winning record; Found is false when every run failed.
	Best  RunRecord
	Found bool
}

// ParallelismClamped reports that a driver reduced its requested
// parallelism to the cluster's concurrent-trial capacity instead of
// oversubscribing it.
type ParallelismClamped struct {
	Requested int
	Allowed   int
}

// HoldSampled reports one monitoring measurement of the incumbent
// taken while a continuous-tuning watch holds between retunes.
type HoldSampled struct {
	// SimTime is the simulated timestamp of the sample.
	SimTime float64
	// Result is the incumbent's measurement at that instant.
	Result storm.Result
	// Baseline is the monitor's current rolling performance estimate
	// (utilization when the workload reports offered load, raw
	// throughput otherwise); zero until the baseline window fills.
	Baseline float64
}

// RetuneTriggered reports that a watch's degradation monitor fired:
// the incumbent has sustainedly underperformed its rolling baseline
// (or sustained backpressure) and a conservative retune episode is
// starting.
type RetuneTriggered struct {
	// Episode is the 1-based retune episode index within the watch.
	Episode int
	// SimTime is the simulated timestamp of the trigger.
	SimTime float64
	// Baseline is the rolling performance estimate the incumbent was
	// held against.
	Baseline float64
	// Current is the degraded performance estimate that tripped the
	// monitor.
	Current float64
	// Reason distinguishes the trigger path: "degradation",
	// "backpressure", or "failure" (the monitoring samples were lost).
	Reason string
}

// RetuneCompleted reports that a retune episode's conservative BO
// session finished and the watch is holding on a (possibly new)
// incumbent.
type RetuneCompleted struct {
	// Episode matches the RetuneTriggered that started the episode.
	Episode int
	// SimTime is the simulated timestamp at completion.
	SimTime float64
	// Steps is the number of retune trials evaluated.
	Steps int
	// Best is the incumbent the watch holds after the episode; Found
	// is false when every retune trial failed (the old incumbent is
	// kept).
	Best  RunRecord
	Found bool
}

func (TrialStarted) sessionEvent()       {}
func (TrialCompleted) sessionEvent()     {}
func (TrialFailed) sessionEvent()        {}
func (TrialRetried) sessionEvent()       {}
func (NewBest) sessionEvent()            {}
func (PassCompleted) sessionEvent()      {}
func (ParallelismClamped) sessionEvent() {}
func (HoldSampled) sessionEvent()        {}
func (RetuneTriggered) sessionEvent()    {}
func (RetuneCompleted) sessionEvent()    {}

// Observer receives session events. Callbacks are serialized — at most
// one runs at a time — but with a concurrent driver (RunBatch,
// RunAsync) the TrialFailed/TrialRetried events of different in-flight
// trials may interleave with the main stream, each from its evaluation
// goroutine. Callbacks must not block for long and may call
// Session.Snapshot but no other session methods.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }
