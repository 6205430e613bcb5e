package stormtune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/journal"
	"stormtune/internal/storm"
)

// Session types re-exported from the core package.
type (
	// Backend evaluates trials: Run(ctx, Trial) either returns the
	// measurement (a Result with Failed set is still a valid, zero-
	// performing observation) or an error meaning the measurement was
	// lost — which the session's RetryPolicy handles. Wrap a simulator
	// with AsBackend, reach a worker process with NewRemoteBackend, or
	// implement the interface for your own cluster harness.
	Backend = core.Backend
	// Trial is one proposed configuration evaluation: evaluate
	// Trial.Config (passing Trial.RunIndex to the evaluator, or running
	// it on whatever system you control) and hand the measurement back
	// via Tuner.Report. It carries the trial ID, the retry attempt and
	// the per-trial deadline.
	Trial = core.Trial
	// RetryPolicy governs lost evaluations: attempts per trial and the
	// exponential backoff between them, which doubles per retry,
	// uncapped. The zero value never retries.
	RetryPolicy = core.RetryPolicy
	// RunRecord is one completed optimization step.
	RunRecord = core.RunRecord
	// Event is a typed session notification; the concrete types are
	// TrialStarted, TrialCompleted, TrialFailed, TrialRetried, NewBest,
	// PassCompleted and ParallelismClamped.
	Event = core.Event
	// TrialStarted reports a trial handed out for evaluation.
	TrialStarted = core.TrialStarted
	// TrialCompleted reports a trial's measurement fed back in.
	TrialCompleted = core.TrialCompleted
	// TrialFailed reports an evaluation attempt whose measurement was
	// lost; Permanent marks the retry budget as spent.
	TrialFailed = core.TrialFailed
	// TrialRetried reports a failed trial being re-attempted.
	TrialRetried = core.TrialRetried
	// NewBest reports a trial that improved the session's best.
	NewBest = core.NewBest
	// PassCompleted reports that a driver finished.
	PassCompleted = core.PassCompleted
	// ParallelismClamped reports a driver reducing its requested
	// parallelism to the cluster's concurrent-trial capacity.
	ParallelismClamped = core.ParallelismClamped
	// Observer receives session events.
	Observer = core.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = core.ObserverFunc
)

// AsBackend adapts an Evaluator (the bundled simulators and their
// wrappers) to the Backend contract; a nil evaluator yields a nil
// Backend for ask/tell-only sessions. Existing Evaluator-based callers
// migrate by wrapping: NewTuner(t, AsBackend(ev), opts).
func AsBackend(ev Evaluator) Backend { return core.AsBackend(ev) }

// BackendPool fans concurrent trials out over a set of member
// backends, routing each trial to a member serving its topology
// fingerprint and shedding to less-loaded workers on admission
// refusals; its Stats method exposes per-worker counters (in-flight,
// completed, errors, shed, health) for the dashboard's workers table.
type BackendPool = core.PoolBackend

// NewBackendPool distributes concurrent trials over member backends —
// e.g. one NewRemoteBackend per worker process — so a single session
// driving RunAsync(ctx, q) saturates up to q workers, and a fleet of
// heterogeneous sessions shares one pool, each trial routed to a
// worker serving its topology (run CheckRemoteBackend per member
// first: it primes the routing cache). Each Run borrows a free
// eligible member for the duration of the evaluation; a worker
// refusing at capacity costs nothing — the trial is shed to the next
// eligible member. Members can join and leave the live pool (Add,
// Remove), unreachable members are evicted and re-probed, and Stats
// samples the members' live counters (wire it into
// DashboardOptions.PoolStats to watch the pool).
func NewBackendPool(members ...Backend) (*BackendPool, error) {
	return core.NewPoolBackend(members...)
}

// OptimizerOptions are the built-in Bayesian optimizer's knobs:
// Candidates (the acquisition's candidate grid), HyperSamples (the
// slice-sampled hyperparameter draws EI is averaged over),
// LocalSearchIters (the refinement of the best candidate) and
// MaxGPPoints (a sliding window on the GP's conditioning data). Zero
// values select the Spearmint-like defaults. Tuner and watch snapshots
// record them, so a resumed run rebuilds the exact same optimizer.
type OptimizerOptions = bo.Knobs

// TunerOptions configure a tuning session.
type TunerOptions struct {
	// Steps is the evaluation budget — the total number of trials the
	// session will propose (default 60, as in the paper).
	Steps int
	// Set selects the searched parameters (default Hints).
	Set ParamSet
	// Template supplies the non-searched parameters; zero value uses the
	// paper's §V-D deployment defaults with hint 1.
	Template *Config
	// Cluster defaults to the paper's 80-machine cluster. It bounds the
	// max-tasks search dimension and the concurrent-trial capacity
	// RunBatch and RunAsync clamp their parallelism to.
	Cluster *ClusterSpec
	// Seed drives the optimizer (default 1).
	Seed int64
	// StopAfterZeros stops the session after this many consecutive
	// zero-performance trials; 0 disables (the paper uses 3 for the
	// linear strategies, 0 for BO).
	StopAfterZeros int
	// Parallel is the number of in-flight trials Propose keeps topped up
	// (default 1 — the paper's sequential procedure). The Run* drivers
	// take their own q and ignore it.
	Parallel int
	// Retry governs trials whose evaluation errors (Backend.Run
	// returning a non-nil error): how many attempts each trial gets and
	// with what backoff before the session records a pessimistic failed
	// observation. The zero value never retries.
	Retry RetryPolicy
	// TrialTimeout bounds each evaluation attempt's wall-clock; trials
	// carry it as their deadline and backends receive it via ctx. Zero
	// means unbounded.
	TrialTimeout time.Duration
	// Observer receives the session's typed events; nil disables.
	Observer Observer
	// Recorder, when set, also receives every event (composed with
	// Observer via MultiObserver) and accumulates the live state the
	// dashboard serves. ResumeTuner primes it from the snapshot first,
	// so a resumed run's dashboard shows the whole incumbent trace.
	Recorder *Recorder
	// Strategy overrides the built-in Bayesian optimizer with a custom
	// strategy (e.g. NewPLA). Snapshots of such a session can only be
	// resumed by supplying an equally fresh Strategy to ResumeTuner.
	Strategy Strategy

	// Archive, when set, records this session into a persistent store
	// of tuning evidence: trials append as they complete (off the
	// propose/report hot path) and the record seals with the final
	// session state when a driver finishes. Ask/tell callers seal
	// explicitly via Tuner.SealArchive.
	// The record's key is derived from the topology fingerprint,
	// strategy and seed plus a run counter (Tuner.ArchiveKey reports
	// it); a resumed session reuses the snapshotted key.
	Archive Archive
	// WarmStart enables transfer learning from Archive: prior
	// incumbents and top configurations of sufficiently similar
	// archived runs replace part of the initial design, optionally
	// with an archived-runs prior on the GP mean. Requires Archive and
	// the built-in Bayesian strategy; off by default.
	WarmStart WarmStartOptions

	// OptimizerOptions are forwarded to the built-in Bayesian strategy.
	OptimizerOptions
}

// composeObserver wires a Recorder in next to an Observer. The typed-nil
// check matters: a nil *Recorder must not reach MultiObserver as a
// non-nil Observer interface.
func composeObserver(rec *Recorder, obs Observer) Observer {
	if rec == nil {
		return obs
	}
	return core.MultiObserver(rec, obs)
}

// boOptions builds the built-in Bayesian strategy's options.
func boOptions(set ParamSet, seed int64, k OptimizerOptions) BOOptions {
	return BOOptions{Set: set, Seed: seed, Opt: bo.Options{Knobs: k}}
}

// resolveEnv fills the session environment defaults NewTuner and
// NewWatcher share: seed 1, the paper's cluster, and the hint-1 default
// template. A supplied template is cloned, so the session never aliases
// the caller's.
func resolveEnv(t *Topology, seed int64, spec *ClusterSpec, template *Config) (int64, *ClusterSpec, *Config) {
	if seed == 0 {
		seed = 1
	}
	s := cluster.Paper()
	if spec != nil {
		s = *spec
	}
	tpl := storm.DefaultConfig(t, 1)
	if template != nil {
		tpl = template.Clone()
	}
	return seed, &s, &tpl
}

// Tuner is a long-lived, interruptible tuning session over one topology
// and backend — the workflow the paper ran with Spearmint on its
// shared cluster (§III-C), exposed as an ask/tell API. Propose hands
// out trials and Report feeds measurements back, so callers can drive
// evaluations themselves, including against external clusters the
// library does not control; the Run, RunBatch and RunAsync drivers
// automate the loop against the configured Backend with context-based
// cancellation, per-trial deadlines, retry of lost evaluations, typed
// events, and Snapshot/ResumeTuner pause points.
type Tuner struct {
	sess     *core.Session
	opts     TunerOptions
	topoName string
	topoN    int
	// fp is the tuned topology's structural fingerprint in hex — the
	// routing key stamped onto every trial.
	fp     string
	custom bool
	// bound is the cluster's concurrent-trial capacity for the template
	// configuration; RunBatch and RunAsync clamp their q to it.
	bound int
	// arec archives completed trials when TunerOptions.Archive is set;
	// archiveKey is its record key and transfer the applied warm start
	// (nil for cold runs).
	arec       *core.ArchiveRecorder
	archiveKey string
	transfer   *TransferSeed
}

// NewTuner starts a tuning session for a topology against a backend —
// a wrapped simulator (AsBackend), a remote evaluation service
// (NewRemoteBackend), a pool of workers (NewBackendPool), or any
// Backend of the caller's own. b may be nil when the caller evaluates
// trials itself through Propose/Report (the Run* drivers then return
// an error).
func NewTuner(t *Topology, b Backend, opts TunerOptions) (*Tuner, error) {
	return newTuner(t, b, opts, nil)
}

// newTuner is the one build path of a Tuner: NewTuner passes st == nil,
// ResumeTuner the snapshot whose fields it folded into opts. Only the
// transfer, the session, the archive backfill and the recorder's
// priming depend on st.
func newTuner(t *Topology, b Backend, opts TunerOptions, st *TunerState) (*Tuner, error) {
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	if opts.Steps <= 0 {
		opts.Steps = 60
	}
	if opts.Parallel < 1 {
		opts.Parallel = 1
	}
	opts.Seed, opts.Cluster, opts.Template = resolveEnv(t, opts.Seed, opts.Cluster, opts.Template)
	spec, template := *opts.Cluster, *opts.Template

	strat := opts.Strategy
	if strat == nil {
		strat = core.NewBO(t, spec, template, boOptions(opts.Set, opts.Seed, opts.OptimizerOptions))
	}
	bs, builtin := strat.(*core.BOStrategy)

	// A resumed session reapplies its snapshotted warm start: replay
	// cross-checks every regenerated proposal, so the optimizer must
	// start from the identical warm design. A fresh one (ResumeTuner
	// never sets WarmStart) computes it before its own record is begun,
	// so the record never serves as its own donor.
	var transfer *TransferSeed
	if st != nil {
		transfer = st.Transfer
	}
	var arec *core.ArchiveRecorder
	archiveKey := ""
	if opts.Archive != nil {
		if st != nil {
			archiveKey = st.ArchiveKey
		}
		if archiveKey == "" {
			archiveKey = deriveArchiveKey(opts.Archive, t.Name, t.Fingerprint(), strat.Name(), opts.Seed)
		}
		meta := core.SessionMetaFor(archiveKey, t, spec, strat.Name(), opts.Set, opts.Seed)
		if builtin && opts.WarmStart.Enabled {
			transfer = core.ComputeTransfer(bs, opts.Archive, meta, opts.WarmStart)
		}
		var err error
		if arec, err = core.NewArchiveRecorder(opts.Archive, meta); err != nil {
			return nil, fmt.Errorf("stormtune: archive: %w", err)
		}
	}
	if builtin {
		bs.ApplyTransfer(transfer)
	}
	observer := composeObserver(opts.Recorder, opts.Observer)
	if arec != nil {
		observer = core.MultiObserver(observer, arec)
	}

	sopts := core.SessionOptions{
		MaxSteps:       opts.Steps,
		StopAfterZeros: opts.StopAfterZeros,
		Retry:          opts.Retry,
		TrialTimeout:   opts.TrialTimeout,
		Observer:       observer,
		Fingerprint:    TopologyFingerprint(t),
	}
	var sess *core.Session
	if st == nil {
		sess = core.NewSession(strat, b, sopts)
	} else {
		var err error
		if sess, err = core.ResumeSession(st.Session, strat, b, sopts); err != nil {
			return nil, err
		}
		// Replay emits no events, so the snapshot's records are
		// backfilled; steps the archive already holds are skipped. The
		// recorder is primed only now that replay accepted the snapshot,
		// and before any live event, so a dashboard shows the
		// pre-snapshot incumbent trace and the carried-over pending
		// trials.
		if arec != nil {
			arec.Backfill(st.Session)
		}
		if opts.Recorder != nil {
			opts.Recorder.Prime(st.Session)
		}
	}
	if opts.Recorder != nil {
		opts.Recorder.SetTransfer(transfer)
	}
	return &Tuner{
		sess:       sess,
		opts:       opts,
		topoName:   t.Name,
		topoN:      t.N(),
		fp:         TopologyFingerprint(t),
		custom:     opts.Strategy != nil,
		bound:      spec.MaxConcurrentTrials(template.TotalTasks()),
		arec:       arec,
		archiveKey: archiveKey,
		transfer:   transfer,
	}, nil
}

// Propose asks for the next trials to evaluate, topping the in-flight
// set up to TunerOptions.Parallel (the free-slot computation is atomic,
// so concurrent callers cannot jointly over-issue past the cap). An
// empty result with a nil error means nothing is currently askable:
// the budget is spent, the stopping rule fired, or Parallel trials are
// already pending — report one and ask again.
func (tn *Tuner) Propose(ctx context.Context) ([]Trial, error) {
	return tn.sess.ProposeFill(ctx, tn.opts.Parallel)
}

// Report feeds the measured result of a proposed trial back into the
// session. Trials of a batch may be reported in any order.
func (tn *Tuner) Report(tr Trial, res Result) error { return tn.sess.Report(tr, res) }

// Pending returns the proposed-but-unreported trials, in issue order.
func (tn *Tuner) Pending() []Trial { return tn.sess.Pending() }

// Done reports whether the session will propose no further trials.
func (tn *Tuner) Done() bool { return tn.sess.Done() }

// Result summarizes the session so far.
func (tn *Tuner) Result() TuneResult { return tn.sess.Result() }

// Best returns the best completed trial; ok is false if every run
// failed (or none completed).
func (tn *Tuner) Best() (RunRecord, bool) { return tn.sess.Result().Best() }

// HyperState returns the built-in Bayesian strategy's current
// hyperparameter posterior, or nil before its first GP fit (or when
// the session runs a custom strategy). Hand it to a follow-up session
// via RetuneOptions.InitHypers to warm-start its hyperparameters.
func (tn *Tuner) HyperState() *HyperState {
	if bs, ok := tn.sess.Strategy().(*core.BOStrategy); ok {
		return bs.HyperState()
	}
	return nil
}

// MaxParallel reports how many concurrent trials of the template
// configuration the session's cluster can host — the bound RunBatch
// and RunAsync clamp their q to.
func (tn *Tuner) MaxParallel() int { return tn.bound }

// Fingerprint returns the tuned topology's structural fingerprint in
// hex — the routing key every proposed trial carries, matched against
// the served set of multi-tenant workers.
func (tn *Tuner) Fingerprint() string { return tn.fp }

// ArchiveKey returns the key this session records under, empty when
// TunerOptions.Archive was not set.
func (tn *Tuner) ArchiveKey() string { return tn.archiveKey }

// Transfer returns the warm start this session applied, nil for cold
// runs (transfer disabled, no archive, or no donor cleared the
// similarity guard).
func (tn *Tuner) Transfer() *TransferSeed { return tn.transfer }

// SealArchive marks the session's archive record complete, attaching
// the final session state and making the evidence durable. The drivers
// call it on a clean finish; ask/tell callers invoke it themselves
// once Done. Without an archive it is a no-op.
func (tn *Tuner) SealArchive() error {
	if tn.arec == nil {
		return nil
	}
	if err := tn.arec.Seal(tn.sess.Snapshot()); err != nil {
		return err
	}
	return tn.arec.Err()
}

// sealAfterRun seals the archive record after a driver finished
// cleanly; a cancelled run stays unsealed so resume can re-attach.
func (tn *Tuner) sealAfterRun(runErr error) error {
	if runErr != nil || tn.arec == nil || !tn.sess.Done() {
		return runErr
	}
	return tn.SealArchive()
}

// Run drives the session sequentially (the paper's procedure) until
// the budget is spent or ctx is cancelled; on cancellation the partial
// result is returned together with ctx's error.
func (tn *Tuner) Run(ctx context.Context) (TuneResult, error) {
	res, err := tn.sess.Run(ctx)
	return res, tn.sealAfterRun(err)
}

// RunBatch drives the session in barrier batches of q concurrently
// evaluated trials (constant-liar suggestions); each round waits for
// the whole batch. q is clamped to MaxParallel, as in RunAsync; q ≤ 1
// reproduces Run.
func (tn *Tuner) RunBatch(ctx context.Context, q int) (TuneResult, error) {
	res, err := tn.sess.RunBatch(ctx, tn.clampParallel(q))
	return res, tn.sealAfterRun(err)
}

// RunAsync drives the session with free-slot refill: up to q trials in
// flight, and the moment any one completes its result is reported and a
// replacement proposed — no barrier, so slow trials never idle the
// other slots. q is clamped to the cluster's concurrent-trial capacity
// (a ParallelismClamped event reports the reduction) instead of
// oversubscribing the cluster. Results are deterministic given the
// seed and completion order; q = 1 is Run.
func (tn *Tuner) RunAsync(ctx context.Context, q int) (TuneResult, error) {
	res, err := tn.sess.RunAsync(ctx, tn.clampParallel(q))
	return res, tn.sealAfterRun(err)
}

// clampParallel bounds a driver's q by the cluster's concurrent-trial
// capacity, emitting ParallelismClamped when it reduces q.
func (tn *Tuner) clampParallel(q int) int {
	if q <= tn.bound {
		return q
	}
	tn.sess.Emit(ParallelismClamped{Requested: q, Allowed: tn.bound})
	return tn.bound
}

// TunerState is the serializable snapshot of a Tuner: everything needed
// to rebuild the optimizer (parameter set, seed, optimizer knobs,
// template, cluster) plus the session's records, pending trials and
// ask/tell log. Resuming replays that log against a freshly built
// strategy, so the resumed session continues bit-identically to an
// uninterrupted run — the Spearmint pause/resume workflow (§III-C),
// now at the public API level.
type TunerState struct {
	Version        int      `json:"version"`
	Topology       string   `json:"topology"`
	Nodes          int      `json:"nodes"`
	Steps          int      `json:"steps"`
	Set            ParamSet `json:"set"`
	Seed           int64    `json:"seed"`
	StopAfterZeros int      `json:"stopAfterZeros,omitempty"`
	Parallel       int      `json:"parallel,omitempty"`
	// The knobs' fields are written inline, here: the embedding's
	// position fixes their place in the snapshot bytes.
	OptimizerOptions
	Template Config             `json:"template"`
	Cluster  ClusterSpec        `json:"cluster"`
	Custom   bool               `json:"custom,omitempty"`
	Session  *core.SessionState `json:"session"`
	// ArchiveKey and Transfer carry the archive identity and the
	// applied warm start: resume re-attaches the same record (no
	// double-appends) and reapplies the identical transfer so replay
	// stays bit-exact. The archive itself is not serialized — pass it
	// again via opts.Archive.
	ArchiveKey string        `json:"archiveKey,omitempty"`
	Transfer   *TransferSeed `json:"transfer,omitempty"`
}

const tunerStateVersion = 1

// Snapshot captures the session. It is safe to call at any time — from
// an Observer callback, between ask/tell rounds, or while a driver is
// mid-run; in-flight trials are carried as pending and re-dispatched on
// resume with their original run indices.
func (tn *Tuner) Snapshot() *TunerState {
	o := tn.opts
	return &TunerState{
		Version:          tunerStateVersion,
		Topology:         tn.topoName,
		Nodes:            tn.topoN,
		Steps:            o.Steps,
		Set:              o.Set,
		Seed:             o.Seed,
		StopAfterZeros:   o.StopAfterZeros,
		Parallel:         o.Parallel,
		OptimizerOptions: o.OptimizerOptions,
		Template:         *o.Template,
		Cluster:          *o.Cluster,
		Custom:           tn.custom,
		Session:          tn.sess.Snapshot(),
		ArchiveKey:       tn.archiveKey,
		Transfer:         tn.transfer,
	}
}

// validate rejects a snapshot no entry point can resume: a nil one, an
// unknown version, or one without its session. Callers add their own
// context to the error.
func (s *TunerState) validate() error {
	switch {
	case s == nil:
		return errors.New("nil tuner state")
	case s.Version != tunerStateVersion:
		return fmt.Errorf("unsupported tuner state version %d", s.Version)
	case s.Session == nil:
		return errors.New("tuner state has no session")
	}
	return nil
}

// resumable is a resumable type's snapshot, *TunerState or *WatchState.
type resumable[T any] interface {
	*T
	validate() error
}

// saveState writes a snapshot as indented JSON.
func saveState(w io.Writer, s any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// loadState decodes one JSON snapshot from r and validates it; what
// names the snapshot in errors.
func loadState[T any, P resumable[T]](r io.Reader, what string) (*T, error) {
	s := new(T)
	if err := json.NewDecoder(r).Decode(s); err != nil {
		return nil, fmt.Errorf("stormtune: decoding %s: %w", what, err)
	}
	if err := P(s).validate(); err != nil {
		return nil, fmt.Errorf("stormtune: %s: %w", what, err)
	}
	return s, nil
}

// loadStateFile is loadState over a file.
func loadStateFile[T any, P resumable[T]](path, what string) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadState[T, P](f, what)
}

// Save writes the snapshot as JSON.
func (s *TunerState) Save(w io.Writer) error { return saveState(w, s) }

// SaveFile atomically replaces path with the snapshot (the bytes Save
// writes): a crash mid-save leaves the previous snapshot in place.
func (s *TunerState) SaveFile(path string) error { return journal.WriteFile(path, s.Save) }

// LoadTunerState reads a snapshot from r.
func LoadTunerState(r io.Reader) (*TunerState, error) { return loadState[TunerState](r, "tuner state") }

// LoadTunerStateFile reads a snapshot from a file.
func LoadTunerStateFile(path string) (*TunerState, error) {
	return loadStateFile[TunerState](path, "tuner state")
}

// checkResumeTopology rejects resuming a snapshot taken over nodes
// nodes onto a topology of another size; newTuner and newWatcher
// reject a nil topology.
func checkResumeTopology(t *Topology, nodes int, name string) error {
	if t != nil && t.N() != nodes {
		return fmt.Errorf("stormtune: topology has %d nodes, snapshot was taken over %d (%s)", t.N(), nodes, name)
	}
	return nil
}

// ResumeTuner reconstructs a session from a snapshot against the same
// topology (and a backend of the caller's choice). The snapshot's
// ask/tell log is replayed against a freshly built optimizer, restoring
// its state — RNG position included — exactly, so the resumed run
// continues bit-identically to one that was never interrupted; the
// replay cross-checks every regenerated configuration and fails if the
// topology or options diverge from the snapshotted run.
//
// opts carries the non-serializable and extendable pieces: Observer, a
// Recorder (primed from the snapshot so its dashboard shows the whole
// run), a raised Steps budget or Parallel, a Retry policy and
// TrialTimeout fitting the new backend's failure profile (zero values
// keep the snapshot's), the Archive to re-attach, and — for snapshots
// of sessions that injected a custom Strategy — an equally fresh
// Strategy instance. All other fields are taken from the snapshot.
func ResumeTuner(st *TunerState, t *Topology, b Backend, opts TunerOptions) (*Tuner, error) {
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: resume: %w", err)
	}
	if err := checkResumeTopology(t, st.Nodes, st.Topology); err != nil {
		return nil, err
	}
	if st.Custom && opts.Strategy == nil {
		return nil, fmt.Errorf("stormtune: snapshot used a custom strategy; pass a fresh one in opts.Strategy")
	}
	if !st.Custom && opts.Strategy != nil {
		return nil, fmt.Errorf("stormtune: snapshot used the built-in optimizer; opts.Strategy must be nil")
	}
	// A zero Steps or Parallel keeps the snapshot's. A zero Retry or
	// TrialTimeout makes core.ResumeSession fall back to the policy
	// stored once, in st.Session; a non-zero one overrides it, because a
	// resumed session may face another failure profile (a local run
	// resumed against a RemoteBackend).
	resolved := TunerOptions{
		Steps:            st.Steps,
		Set:              st.Set,
		Seed:             st.Seed,
		StopAfterZeros:   st.StopAfterZeros,
		Parallel:         st.Parallel,
		OptimizerOptions: st.OptimizerOptions,
		Template:         &st.Template,
		Cluster:          &st.Cluster,
		Retry:            opts.Retry,
		TrialTimeout:     opts.TrialTimeout,
		Observer:         opts.Observer,
		Recorder:         opts.Recorder,
		Strategy:         opts.Strategy,
		Archive:          opts.Archive,
	}
	if opts.Steps > 0 {
		resolved.Steps = opts.Steps
	}
	if opts.Parallel > 0 {
		resolved.Parallel = opts.Parallel
	}
	return newTuner(t, b, resolved, st)
}
