package core

import (
	"fmt"
	"time"

	"stormtune/internal/storm"
)

// SessionOp is one entry of the session's ask/tell log. Exactly one
// field is set: Ask is the size of one strategy batch request, Tell is
// the trial id (= record step) whose result was reported. Replaying the
// log against a freshly built strategy reproduces the strategy's
// internal state — including its RNG position — bit for bit, which is
// what makes a resumed session continue exactly like an uninterrupted
// one.
type SessionOp struct {
	Ask  int `json:"ask,omitempty"`
	Tell int `json:"tell,omitempty"`
}

// RecordState is one completed trial in serialized form.
type RecordState struct {
	Step       int          `json:"step"`
	Config     storm.Config `json:"config"`
	Result     storm.Result `json:"result"`
	DecisionNS int64        `json:"decisionNs,omitempty"`
}

// TrialState is one proposed-but-unreported trial in serialized form.
// Attempt carries the evaluation attempts that have failed, so a trial
// snapshotted mid-retry resumes with its remaining retry budget rather
// than a fresh one (an attempt interrupted by the shutdown itself is
// not a failure and consumes nothing).
type TrialState struct {
	ID         int          `json:"id"`
	Config     storm.Config `json:"config"`
	Attempt    int          `json:"attempt,omitempty"`
	DecisionNS int64        `json:"decisionNs,omitempty"`
	// SimTime preserves the simulated timestamp the trial was proposed
	// at, so a resumed drifting-workload session re-measures it under
	// the same load.
	SimTime float64 `json:"simTime,omitempty"`
}

// SessionState is the serializable snapshot of a session: the completed
// records, the in-flight (pending) trials, and the interleaved ask/tell
// log from which the strategy's random state is reconstructed on
// resume. It is the only pause/resume path: replaying the log restores
// the optimizer bit-exactly, the way Spearmint's pause/resume covered
// the whole tuning run (§III-C: it "turned out to be important" on the
// shared lab cluster).
type SessionState struct {
	Version        int           `json:"version"`
	Strategy       string        `json:"strategy"`
	MaxSteps       int           `json:"maxSteps"`
	StopAfterZeros int           `json:"stopAfterZeros,omitempty"`
	RunOffset      int           `json:"runOffset,omitempty"`
	Retry          RetryPolicy   `json:"retry"`
	TrialTimeoutNS int64         `json:"trialTimeoutNs,omitempty"`
	Issued         int           `json:"issued"`
	Zeros          int           `json:"zeros,omitempty"`
	Stopped        bool          `json:"stopped,omitempty"`
	Exhausted      bool          `json:"exhausted,omitempty"`
	Records        []RecordState `json:"records"`
	Pending        []TrialState  `json:"pending,omitempty"`
	Ops            []SessionOp   `json:"ops"`
}

const sessionStateVersion = 1

// Snapshot captures the session. It is safe to call at any time,
// including from an Observer callback or while a driver is mid-run; a
// snapshot taken between a proposal and its report carries the trial as
// pending, and the resumed session re-dispatches it with the original
// run index.
func (s *Session) Snapshot() *SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &SessionState{
		Version:        sessionStateVersion,
		Strategy:       s.strat.Name(),
		MaxSteps:       s.opts.MaxSteps,
		StopAfterZeros: s.opts.StopAfterZeros,
		RunOffset:      s.opts.RunOffset,
		Retry:          s.opts.Retry,
		TrialTimeoutNS: int64(s.opts.TrialTimeout),
		Issued:         s.issued,
		Zeros:          s.zeros,
		Stopped:        s.stopped,
		Exhausted:      s.exhausted,
		Records:        make([]RecordState, len(s.records)),
		Ops:            append([]SessionOp(nil), s.ops...),
	}
	for i, r := range s.records {
		st.Records[i] = RecordState{Step: r.Step, Config: r.Config, Result: r.Result, DecisionNS: int64(r.Decision)}
	}
	for _, p := range s.pending {
		st.Pending = append(st.Pending, TrialState{
			ID: p.ID, Config: p.Config, Attempt: p.Attempt, DecisionNS: int64(p.Decision),
			SimTime: p.SimTime,
		})
	}
	return st
}

// Validate sanity-checks a deserialized state.
func (st *SessionState) Validate() error {
	if st == nil {
		return fmt.Errorf("core: nil session state")
	}
	if st.Version != sessionStateVersion {
		return fmt.Errorf("core: unsupported session state version %d", st.Version)
	}
	asks, tells := 0, 0
	for i, op := range st.Ops {
		switch {
		case op.Ask > 0 && op.Tell == 0:
			asks += op.Ask
		case op.Tell > 0 && op.Ask == 0:
			tells++
		default:
			return fmt.Errorf("core: session op %d is neither ask nor tell", i)
		}
	}
	if asks != st.Issued {
		return fmt.Errorf("core: op log issues %d trials, state says %d", asks, st.Issued)
	}
	if tells != len(st.Records) {
		return fmt.Errorf("core: op log reports %d trials, state has %d records", tells, len(st.Records))
	}
	if len(st.Records)+len(st.Pending) != st.Issued {
		return fmt.Errorf("core: %d records + %d pending ≠ %d issued",
			len(st.Records), len(st.Pending), st.Issued)
	}
	return nil
}

// ResumeSession reconstructs a session from a snapshot. strat must be a
// freshly constructed strategy with the same options and seed as the
// one the snapshot was taken from: the snapshot's ask/tell log is
// replayed against it — every ask re-drawn, every recorded result
// re-observed in the original interleaving — so the strategy (RNG
// position included) ends up bit-identical to the snapshotted one and
// the resumed session continues exactly like an uninterrupted run.
// Replay cross-checks each re-drawn configuration against the snapshot
// and fails if the strategy diverges (wrong options, seed or topology).
//
// opts.MaxSteps may raise (or lower) the remaining budget; zero keeps
// the snapshot's, as do a zero opts.Retry and opts.TrialTimeout.
// opts.RunOffset is ignored — the snapshot's offset is kept so
// evaluator noise draws line up. In-flight trials — including ones
// snapshotted mid-retry — come back as pending with their attempt
// budget where it left off, and the drivers re-dispatch them first.
func ResumeSession(st *SessionState, strat Strategy, bk Backend, opts SessionOptions) (*Session, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	wantCfg := make(map[int]storm.Config, st.Issued)
	recByStep := make(map[int]RecordState, len(st.Records))
	for _, r := range st.Records {
		recByStep[r.Step] = r
		wantCfg[r.Step] = r.Config
	}
	pendByID := make(map[int]TrialState, len(st.Pending))
	for _, p := range st.Pending {
		pendByID[p.ID] = p
		wantCfg[p.ID] = p.Config
	}

	nextID := 0
	for _, op := range st.Ops {
		if op.Ask > 0 {
			cfgs, _, ok := nextBatch(strat, op.Ask)
			if !ok || len(cfgs) != op.Ask {
				return nil, fmt.Errorf("core: resume replay: strategy returned %d of %d trials at op ask", len(cfgs), op.Ask)
			}
			for _, cfg := range cfgs {
				nextID++
				want, known := wantCfg[nextID]
				if !known {
					return nil, fmt.Errorf("core: resume replay: snapshot has no configuration for trial %d", nextID)
				}
				if want.Fingerprint() != cfg.Fingerprint() {
					return nil, fmt.Errorf("core: resume replay diverged at trial %d — strategy options, seed or topology differ from the snapshotted run", nextID)
				}
			}
			continue
		}
		rec, ok := recByStep[op.Tell]
		if !ok {
			return nil, fmt.Errorf("core: resume replay: tell for unknown trial %d", op.Tell)
		}
		strat.Observe(rec.Config, rec.Result)
	}

	if opts.MaxSteps <= 0 {
		opts.MaxSteps = st.MaxSteps
	}
	if opts.StopAfterZeros == 0 {
		opts.StopAfterZeros = st.StopAfterZeros
	}
	if opts.Retry == (RetryPolicy{}) {
		opts.Retry = st.Retry
	}
	if opts.TrialTimeout == 0 {
		opts.TrialTimeout = time.Duration(st.TrialTimeoutNS)
	}
	opts.RunOffset = st.RunOffset
	s := NewSession(strat, bk, opts)
	s.issued = st.Issued
	s.zeros = st.Zeros
	s.stopped = st.Stopped
	// A raised budget clears strategy exhaustion only if the strategy
	// can actually propose again; keep the cheap flag and let the next
	// Propose re-discover exhaustion if it persists.
	s.exhausted = false
	s.ops = append([]SessionOp(nil), st.Ops...)
	s.records = make([]RunRecord, len(st.Records))
	for i, r := range st.Records {
		s.records[i] = RunRecord{Step: r.Step, Config: r.Config, Result: r.Result, Decision: time.Duration(r.DecisionNS)}
		if !r.Result.Failed && r.Result.Throughput > s.best {
			s.best = r.Result.Throughput
			s.bestStep = r.Step
		}
	}
	for _, p := range st.Pending {
		// Fingerprint is routing metadata, not persisted state: re-stamp
		// it from the resuming options so restored trials route the same
		// way fresh proposals do.
		s.pending = append(s.pending, Trial{
			ID: p.ID, Config: p.Config,
			RunIndex:    st.RunOffset + p.ID,
			Attempt:     p.Attempt,
			Timeout:     opts.TrialTimeout,
			Decision:    time.Duration(p.DecisionNS),
			SimTime:     p.SimTime,
			Fingerprint: opts.Fingerprint,
		})
	}
	return s, nil
}
