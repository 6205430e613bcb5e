package core

import (
	"fmt"
	"sync"
	"time"

	"stormtune/internal/storm"
)

// MultiObserver composes observers: every event is delivered to each
// member in order, so a progress printer, a Recorder and a metrics
// exporter can all watch one session. Nil members are skipped; with no
// non-nil member the result is nil (which SessionOptions treats as "no
// observer").
func MultiObserver(obs ...Observer) Observer {
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

// OnEvent implements Observer.
func (m multiObserver) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// TrialStatus is the lifecycle state the Recorder derives for a trial.
type TrialStatus string

// Trial lifecycle states.
const (
	// StatusPending marks a trial carried over from a snapshot that the
	// resumed session has not re-dispatched yet.
	StatusPending TrialStatus = "pending"
	// StatusRunning marks a trial handed out for evaluation.
	StatusRunning TrialStatus = "running"
	// StatusRetrying marks a trial whose last evaluation attempt was
	// lost: it covers the backoff wait and the re-attempt itself (the
	// retry loop emits no per-attempt start event), until the trial
	// completes or fails permanently.
	StatusRetrying TrialStatus = "retrying"
	// StatusDone marks a trial with a successful measurement.
	StatusDone TrialStatus = "done"
	// StatusFailed marks a trial whose recorded result is a failure —
	// an unplaceable configuration, a timeout, or a permanently lost
	// measurement.
	StatusFailed TrialStatus = "failed"
)

// RecordedEvent is one session event in the Recorder's history,
// flattened into a serializable form: a monotonically increasing
// sequence number (the SSE event ID the dashboard replays from), the
// wall-clock time, and the event's payload fields. Fields not relevant
// to the Kind are zero.
type RecordedEvent struct {
	// Seq is the 1-based position in the history.
	Seq int64 `json:"seq"`
	// Kind names the event type: "trial_started", "trial_completed",
	// "trial_failed", "trial_retried", "new_best", "pass_completed",
	// "parallelism_clamped".
	Kind string `json:"kind"`
	// At is the wall-clock time the Recorder saw the event.
	At time.Time `json:"at"`
	// ElapsedMS is At relative to the Recorder's start.
	ElapsedMS int64 `json:"elapsedMs"`
	// TrialID is set for per-trial events: the trial's run index,
	// unique across a watch's sessions (equal to the trial ID in a
	// tuner).
	TrialID int `json:"trialId,omitempty"`
	// Attempt is the evaluation attempt for failure/retry events.
	Attempt int `json:"attempt,omitempty"`
	// Throughput carries the measurement of trial_completed / new_best.
	Throughput float64 `json:"throughput,omitempty"`
	// Failed and Failure classify a failed measurement.
	Failed  bool   `json:"failed,omitempty"`
	Failure string `json:"failure,omitempty"`
	// Err is the evaluation error of trial_failed / trial_retried.
	Err string `json:"err,omitempty"`
	// Permanent marks a trial_failed with the retry budget spent.
	Permanent bool `json:"permanent,omitempty"`
	// BackoffMS is the wait before a retried attempt.
	BackoffMS int64 `json:"backoffMs,omitempty"`
	// Steps and Found summarize a pass_completed.
	Steps int  `json:"steps,omitempty"`
	Found bool `json:"found,omitempty"`
	// Requested and Allowed describe a parallelism_clamped.
	Requested int `json:"requested,omitempty"`
	Allowed   int `json:"allowed,omitempty"`
	// SimTime is the simulated timestamp of continuous-tuning events
	// (hold_sample, retune_triggered, retune_completed).
	SimTime float64 `json:"simTime,omitempty"`
	// Episode is the retune episode of retune_triggered /
	// retune_completed.
	Episode int `json:"episode,omitempty"`
	// Baseline is the monitor's rolling performance estimate
	// (hold_sample, retune_triggered); Current is the degraded estimate
	// that tripped a retune_triggered.
	Baseline float64 `json:"baseline,omitempty"`
	Current  float64 `json:"current,omitempty"`
	// Reason is the retune_triggered trigger path ("degradation",
	// "backpressure" or "failure").
	Reason string `json:"reason,omitempty"`
	// Replayed marks an event synthesized by Prime from a snapshot
	// rather than observed live; its timing fields describe the replay,
	// not the original run.
	Replayed bool `json:"replayed,omitempty"`
}

// Event kind names, as RecordedEvent.Kind and the SSE stream carry them.
const (
	KindTrialStarted       = "trial_started"
	KindTrialCompleted     = "trial_completed"
	KindTrialFailed        = "trial_failed"
	KindTrialRetried       = "trial_retried"
	KindNewBest            = "new_best"
	KindPassCompleted      = "pass_completed"
	KindParallelismClamped = "parallelism_clamped"
	KindHoldSample         = "hold_sample"
	KindRetuneTriggered    = "retune_triggered"
	KindRetuneCompleted    = "retune_completed"
)

// TrialView is the Recorder's derived per-trial state.
type TrialView struct {
	// ID is the trial's run index (see RecordedEvent.TrialID).
	ID     int          `json:"id"`
	Config storm.Config `json:"config"`
	Status TrialStatus  `json:"status"`
	// Attempts is the number of evaluation attempts consumed so far —
	// failed ones plus, for a running trial, the one in flight.
	Attempts int `json:"attempts"`
	// StartedAt / FinishedAt bound the trial's wall-clock; FinishedAt is
	// zero while the trial is in flight.
	StartedAt  time.Time `json:"startedAt"`
	FinishedAt time.Time `json:"finishedAt,omitempty"`
	// DurationMS is FinishedAt - StartedAt for finished trials.
	DurationMS int64 `json:"durationMs,omitempty"`
	// Throughput, Failed and Failure carry the recorded measurement.
	Throughput float64 `json:"throughput"`
	Failed     bool    `json:"failed,omitempty"`
	Failure    string  `json:"failure,omitempty"`
	Error      string  `json:"error,omitempty"`
	// Best marks the trial that holds (or held) the incumbent.
	Best bool `json:"best,omitempty"`
	// Replayed marks a trial restored by Prime rather than observed.
	Replayed bool `json:"replayed,omitempty"`
}

// IncumbentPoint is one point of the best-so-far curve: after the
// completion of trial Step, the best throughput seen was Best. The
// curve is the convergence trace of Figures 6/8b, updated live; regret
// against the final incumbent is Best(final) - Best(step).
type IncumbentPoint struct {
	// Step counts completed trials (1-based completion order).
	Step int `json:"step"`
	// TrialID is the run index of the trial whose completion produced
	// the point.
	TrialID int `json:"trialId"`
	// Best is the best throughput after this completion.
	Best float64 `json:"best"`
	// ElapsedMS is the session wall-clock at the completion.
	ElapsedMS int64 `json:"elapsedMs"`
}

// RetunePoint is one retune episode in the Recorder's derived state:
// when the monitor fired, why, and how the episode ended. Completed is
// false while the episode's conservative search is still running.
type RetunePoint struct {
	// Episode is the 1-based retune episode index.
	Episode int `json:"episode"`
	// SimTime is the simulated timestamp of the trigger.
	SimTime float64 `json:"simTime"`
	// Baseline and Current are the monitor's estimates at the trigger.
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Reason is the trigger path: "degradation", "backpressure" or
	// "failure".
	Reason string `json:"reason"`
	// Completed marks a finished episode; the fields below are zero
	// until then.
	Completed bool `json:"completed"`
	// CompletedSimTime is the simulated timestamp at completion.
	CompletedSimTime float64 `json:"completedSimTime,omitempty"`
	// Steps is the number of retune trials the episode evaluated.
	Steps int `json:"steps,omitempty"`
	// Best is the throughput of the incumbent held after the episode.
	Best float64 `json:"best,omitempty"`
}

// RecorderSnapshot is the queryable state of a Recorder at one instant.
type RecorderSnapshot struct {
	// StartedAt is when the Recorder was created (or primed).
	StartedAt time.Time `json:"startedAt"`
	// ElapsedMS is the wall-clock observed so far.
	ElapsedMS int64 `json:"elapsedMs"`
	// Events is the history length; the SSE stream's next event will
	// carry Seq = Events + 1.
	Events int64 `json:"events"`
	// Trials holds every trial seen, in first-seen order.
	Trials []TrialView `json:"trials"`
	// Incumbent is the best-so-far curve, one point per completion.
	Incumbent []IncumbentPoint `json:"incumbent"`
	// Best and BestTrial (a run index) identify the incumbent (zero
	// when every run failed so far).
	Best      float64 `json:"best"`
	BestTrial int     `json:"bestTrial"`
	// Counters over Trials, precomputed for display.
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Retrying  int `json:"retrying"`
	Completed int `json:"completed"`
	FailedN   int `json:"failedTrials"`
	// Retries is the total number of lost attempts that were retried.
	Retries int `json:"retries"`
	// Retunes lists the continuous-tuning retune episodes observed so
	// far (empty for plain tuning runs).
	Retunes []RetunePoint `json:"retunes,omitempty"`
	// WarmStarted marks a session seeded from the archive; the Warm*
	// fields identify the donor run (fingerprint in hex) and its
	// similarity to this session's topology. All zero for cold runs.
	WarmStarted          bool    `json:"warmStarted,omitempty"`
	WarmDonor            string  `json:"warmDonor,omitempty"`
	WarmDonorFingerprint string  `json:"warmDonorFingerprint,omitempty"`
	WarmSimilarity       float64 `json:"warmSimilarity,omitempty"`
	// Done reports that a driver finished (pass_completed observed).
	Done bool `json:"done"`
}

// Recorder is an Observer that keeps the full event history plus the
// derived live state of a tuning session — per-trial status, attempt
// counts and timing, the incumbent trace, and a best-so-far curve —
// queryable at any time via Snapshot. It is safe for concurrent use:
// the session delivers events serially, but Snapshot, EventsSince and
// the SSE consumers they serve may run from any goroutine. Compose it
// with other observers via MultiObserver, or hand it to the public
// tuner through TunerOptions.Recorder.
type Recorder struct {
	mu       sync.Mutex
	now      func() time.Time
	start    time.Time
	events   []RecordedEvent
	trials   map[int]*TrialView
	order    []int
	curve    []IncumbentPoint
	best     float64
	bestID   int
	retries  int
	retunes  []RetunePoint
	transfer *TransferSeed
	done     bool
	// wake is closed and replaced whenever the history grows, so
	// EventsSince callers can block for the next event without polling.
	wake chan struct{}
}

// NewRecorder builds an empty Recorder; its clock starts now.
func NewRecorder() *Recorder {
	return newRecorderAt(time.Now)
}

func newRecorderAt(now func() time.Time) *Recorder {
	return &Recorder{
		now:    now,
		start:  now(),
		trials: make(map[int]*TrialView),
		wake:   make(chan struct{}),
	}
}

// trial returns (creating if needed) the view for a trial, keyed on
// its run index: unlike the session-local ID, it stays unique across
// the sessions of a watch.
func (r *Recorder) trial(tr Trial) *TrialView {
	tv, ok := r.trials[tr.RunIndex]
	if !ok {
		tv = &TrialView{ID: tr.RunIndex, Config: tr.Config}
		r.trials[tr.RunIndex] = tv
		r.order = append(r.order, tr.RunIndex)
	}
	return tv
}

// OnEvent implements Observer: fold the event into the derived state
// and append it to the history.
func (r *Recorder) OnEvent(e Event) {
	r.mu.Lock()
	at := r.now()
	re := RecordedEvent{At: at, ElapsedMS: at.Sub(r.start).Milliseconds()}
	switch ev := e.(type) {
	case TrialStarted:
		re.Kind = KindTrialStarted
		re.TrialID = ev.Trial.RunIndex
		tv := r.trial(ev.Trial)
		tv.Status = StatusRunning
		tv.StartedAt = at
		// Trial.Attempt counts consumed (failed) attempts; the dispatch
		// itself is one more in flight. Monotonic so a retry event's
		// count is never rolled back.
		if a := ev.Trial.Attempt + 1; a > tv.Attempts {
			tv.Attempts = a
		}
	case TrialCompleted:
		re.Kind = KindTrialCompleted
		re.TrialID = ev.Trial.RunIndex
		re.Throughput = ev.Result.Throughput
		re.Failed = ev.Result.Failed
		re.Failure = string(ev.Result.Failure)
		tv := r.trial(ev.Trial)
		tv.FinishedAt = at
		if !tv.StartedAt.IsZero() {
			tv.DurationMS = at.Sub(tv.StartedAt).Milliseconds()
		}
		tv.Throughput = ev.Result.Throughput
		tv.Failed = ev.Result.Failed
		tv.Failure = string(ev.Result.Failure)
		tv.Error = ev.Result.Error
		if ev.Result.Failed {
			tv.Status = StatusFailed
		} else {
			tv.Status = StatusDone
		}
		// Same rule as Session.Report's NewBest: a strictly positive
		// improvement. A non-failed zero-throughput run is recorded but
		// never starred — the session would not call it best either.
		if !ev.Result.Failed && ev.Result.Throughput > r.best {
			r.setBest(ev.Trial.RunIndex, ev.Result.Throughput)
		}
		r.curve = append(r.curve, IncumbentPoint{
			Step: len(r.curve) + 1, TrialID: ev.Trial.RunIndex, Best: r.best,
			ElapsedMS: re.ElapsedMS,
		})
	case TrialFailed:
		re.Kind = KindTrialFailed
		re.TrialID = ev.Trial.RunIndex
		re.Attempt = ev.Attempt
		re.Permanent = ev.Permanent
		if ev.Err != nil {
			re.Err = ev.Err.Error()
		}
		tv := r.trial(ev.Trial)
		tv.Attempts = ev.Attempt
		if !ev.Permanent {
			tv.Status = StatusRetrying
		}
		// A permanent failure is followed by a TrialCompleted carrying
		// the pessimistic result; that transition sets StatusFailed.
	case TrialRetried:
		re.Kind = KindTrialRetried
		re.TrialID = ev.Trial.RunIndex
		re.Attempt = ev.Attempt
		re.BackoffMS = ev.Backoff.Milliseconds()
		if ev.Err != nil {
			re.Err = ev.Err.Error()
		}
		tv := r.trial(ev.Trial)
		tv.Status = StatusRetrying
		tv.Attempts = ev.Attempt // the attempt about to start
		r.retries++
	case NewBest:
		re.Kind = KindNewBest
		re.TrialID = ev.Trial.RunIndex
		re.Throughput = ev.Result.Throughput
		// Report observed the improvement before emitting; the
		// TrialCompleted branch above already moved the incumbent.
	case PassCompleted:
		re.Kind = KindPassCompleted
		re.Steps = ev.Steps
		re.Found = ev.Found
		r.done = true
		// A driver that stopped on cancellation leaves in-flight trials
		// pending in the session (a snapshot carries them); mirror that
		// so a finished dashboard never shows "done" next to trials
		// still badged running.
		for _, tv := range r.trials {
			if tv.Status == StatusRunning || tv.Status == StatusRetrying {
				tv.Status = StatusPending
			}
		}
	case ParallelismClamped:
		re.Kind = KindParallelismClamped
		re.Requested = ev.Requested
		re.Allowed = ev.Allowed
	case HoldSampled:
		re.Kind = KindHoldSample
		re.SimTime = ev.SimTime
		re.Throughput = ev.Result.Throughput
		re.Failed = ev.Result.Failed
		re.Failure = string(ev.Result.Failure)
		re.Baseline = ev.Baseline
	case RetuneTriggered:
		re.Kind = KindRetuneTriggered
		re.SimTime = ev.SimTime
		re.Episode = ev.Episode
		re.Baseline = ev.Baseline
		re.Current = ev.Current
		re.Reason = ev.Reason
		r.retunes = append(r.retunes, RetunePoint{
			Episode: ev.Episode, SimTime: ev.SimTime,
			Baseline: ev.Baseline, Current: ev.Current, Reason: ev.Reason,
		})
	case RetuneCompleted:
		re.Kind = KindRetuneCompleted
		re.SimTime = ev.SimTime
		re.Episode = ev.Episode
		re.Steps = ev.Steps
		re.Found = ev.Found
		re.Throughput = ev.Best.Result.Throughput
		// Complete the matching episode; retunes are appended in episode
		// order so scanning backwards finds it first.
		for i := len(r.retunes) - 1; i >= 0; i-- {
			if r.retunes[i].Episode == ev.Episode {
				r.retunes[i].Completed = true
				r.retunes[i].CompletedSimTime = ev.SimTime
				r.retunes[i].Steps = ev.Steps
				r.retunes[i].Best = ev.Best.Result.Throughput
				break
			}
		}
	default:
		r.mu.Unlock()
		return // unknown future event type: derive nothing, record nothing
	}
	// Any event after a pass_completed means the session is being driven
	// again (raised budget, in-process resume): the run is live, so the
	// SSE streams must follow it instead of hanging up at "done".
	if re.Kind != KindPassCompleted {
		r.done = false
	}
	r.append(re)
	r.mu.Unlock()
}

// setBest moves the incumbent, clearing the Best mark on the previous
// holder. Callers hold r.mu.
func (r *Recorder) setBest(trialID int, throughput float64) {
	if prev, ok := r.trials[r.bestID]; ok {
		prev.Best = false
	}
	r.best = throughput
	r.bestID = trialID
	if tv, ok := r.trials[trialID]; ok {
		tv.Best = true
	}
}

// append stamps the next sequence number, stores the event and wakes
// blocked EventsSince callers. Callers hold r.mu.
func (r *Recorder) append(re RecordedEvent) {
	re.Seq = int64(len(r.events)) + 1
	r.events = append(r.events, re)
	close(r.wake)
	r.wake = make(chan struct{})
}

// Prime seeds the Recorder from a session snapshot, synthesizing the
// history a live Recorder would have accumulated: one started+completed
// event pair per record (with new_best events as the incumbent
// improved) and a pending trial per in-flight snapshot entry. Use it
// with ResumeTuner so the dashboard of a resumed run shows the whole
// incumbent trace, not just the continuation; the public tuner primes
// TunerOptions.Recorder automatically. Priming a recorder that already
// holds events is a no-op: an in-process resume reusing its live
// Recorder keeps the live history. Synthesized events carry
// Replayed and replay-time timestamps — the original run's wall-clock
// is not part of a snapshot.
func (r *Recorder) Prime(st *SessionState) {
	if st == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A recorder that has already observed events (an in-process resume
	// reusing the live Recorder) keeps its richer live history —
	// replaying the snapshot on top would duplicate every trial, curve
	// point and incumbent move.
	if len(r.events) > 0 {
		return
	}
	at := r.now()
	stamp := func(kind string) RecordedEvent {
		return RecordedEvent{
			Kind: kind, At: at, ElapsedMS: at.Sub(r.start).Milliseconds(),
			Replayed: true,
		}
	}
	for _, rec := range st.Records {
		run := st.RunOffset + rec.Step
		tv := r.trial(Trial{RunIndex: run, Config: rec.Config})
		tv.Replayed = true
		tv.Throughput = rec.Result.Throughput
		tv.Failed = rec.Result.Failed
		tv.Failure = string(rec.Result.Failure)
		tv.Error = rec.Result.Error
		tv.Attempts = 1
		if rec.Result.Failed {
			tv.Status = StatusFailed
		} else {
			tv.Status = StatusDone
		}
		started := stamp(KindTrialStarted)
		started.TrialID = run
		r.append(started)
		completed := stamp(KindTrialCompleted)
		completed.TrialID = run
		completed.Throughput = rec.Result.Throughput
		completed.Failed = rec.Result.Failed
		completed.Failure = string(rec.Result.Failure)
		r.append(completed)
		if !rec.Result.Failed && rec.Result.Throughput > r.best {
			r.setBest(run, rec.Result.Throughput)
			nb := stamp(KindNewBest)
			nb.TrialID = run
			nb.Throughput = rec.Result.Throughput
			r.append(nb)
		}
		r.curve = append(r.curve, IncumbentPoint{
			Step: len(r.curve) + 1, TrialID: run, Best: r.best,
			ElapsedMS: at.Sub(r.start).Milliseconds(),
		})
	}
	for _, p := range st.Pending {
		tv := r.trial(Trial{RunIndex: st.RunOffset + p.ID, Config: p.Config})
		tv.Replayed = true
		tv.Status = StatusPending
		tv.Attempts = p.Attempt
	}
}

// SetTransfer records the warm start a session applied so the
// dashboard's /api/state carries the provenance (warmStarted, donor
// key, donor fingerprint, similarity). A nil seed is a no-op — cold
// runs stay unmarked.
func (r *Recorder) SetTransfer(seed *TransferSeed) {
	if seed == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.transfer = seed
}

// Snapshot returns the derived state at this instant. The returned
// slices are copies; callers may keep them.
func (r *Recorder) Snapshot() RecorderSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RecorderSnapshot{
		StartedAt: r.start,
		ElapsedMS: r.now().Sub(r.start).Milliseconds(),
		Events:    int64(len(r.events)),
		Trials:    make([]TrialView, 0, len(r.order)),
		Incumbent: append([]IncumbentPoint(nil), r.curve...),
		Best:      r.best,
		BestTrial: r.bestID,
		Retries:   r.retries,
		Retunes:   append([]RetunePoint(nil), r.retunes...),
		Done:      r.done,
	}
	if r.transfer != nil {
		s.WarmStarted = true
		s.WarmDonor = r.transfer.Donor
		s.WarmDonorFingerprint = fmt.Sprintf("%016x", r.transfer.DonorFingerprint)
		s.WarmSimilarity = r.transfer.Similarity
	}
	for _, id := range r.order {
		tv := *r.trials[id]
		s.Trials = append(s.Trials, tv)
		switch tv.Status {
		case StatusPending:
			s.Pending++
		case StatusRunning:
			s.Running++
		case StatusRetrying:
			s.Retrying++
		case StatusDone:
			s.Completed++
		case StatusFailed:
			s.Completed++
			s.FailedN++
		}
	}
	return s
}

// RecorderStats are a Recorder's scalar counters — what a cross-session
// aggregator needs, without the trial-view and curve copies Snapshot
// makes.
type RecorderStats struct {
	// Trials counts every trial seen; Completed counts finished ones
	// (failures included) and Failed the failures among them.
	Trials    int
	Completed int
	Failed    int
	// Retries is the total number of lost attempts that were retried.
	Retries int
	// Best and BestTrial identify the incumbent.
	Best      float64
	BestTrial int
	// ElapsedMS is the wall-clock observed so far.
	ElapsedMS int64
	// Done reports that a driver finished.
	Done bool
}

// Stats samples the scalar counters without copying the event history
// or per-trial state — cheap enough for a fleet dashboard to poll per
// member on every /api/fleet request.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RecorderStats{
		Trials:    len(r.order),
		Retries:   r.retries,
		Best:      r.best,
		BestTrial: r.bestID,
		ElapsedMS: r.now().Sub(r.start).Milliseconds(),
		Done:      r.done,
	}
	for _, tv := range r.trials {
		switch tv.Status {
		case StatusDone:
			st.Completed++
		case StatusFailed:
			st.Completed++
			st.Failed++
		}
	}
	return st
}

// IncumbentTrace returns the (trial id, best throughput) pairs at which
// the incumbent moved — the convergence trace in its most comparable
// form (timestamps excluded, so a primed Recorder's trace can be
// compared with the live one it replays).
func (r *Recorder) IncumbentTrace() []IncumbentPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	var trace []IncumbentPoint
	prev := -1.0
	for _, p := range r.curve {
		if p.Best != prev {
			trace = append(trace, IncumbentPoint{Step: p.Step, TrialID: p.TrialID, Best: p.Best})
			prev = p.Best
		}
	}
	return trace
}

// Done reports whether a pass_completed event has been observed.
func (r *Recorder) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// EventsSince returns a copy of the history after sequence number
// `after` (0 = from the beginning). When the history has no newer
// events, the returned channel can be waited on: it is closed as soon
// as one arrives (wait is nil when events were returned). This is the
// replay-plus-follow primitive the SSE endpoint is built on.
//
// A cursor beyond the history cannot come from this Recorder (sequence
// numbers are dense) — it is a stale Last-Event-ID from a previous
// run, e.g. a browser reconnecting after the process restarted on the
// same port — so it resets to a full replay rather than silently
// starving the subscriber until the new run catches up.
func (r *Recorder) EventsSince(after int64) (evs []RecordedEvent, wait <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if after < 0 || int(after) > len(r.events) {
		after = 0
	}
	if int(after) < len(r.events) {
		return append([]RecordedEvent(nil), r.events[after:]...), nil
	}
	return nil, r.wake
}
