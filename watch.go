package stormtune

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"stormtune/internal/bo"
	"stormtune/internal/core"
	"stormtune/internal/journal"
	"stormtune/internal/storm"
	"stormtune/internal/watch"
)

// Drifting-workload types re-exported from the storm package.
type (
	// DriftProfile shapes offered load over simulated time: Factor(t)
	// multiplies a base load. Profiles are pure functions of t (and a
	// fixed seed), so drifting workloads replay bit-identically.
	DriftProfile = storm.DriftProfile
	// Diurnal is a sinusoidal day/night cycle.
	Diurnal = storm.Diurnal
	// FlashCrowd is a sudden surge: ramp up at At, hold Magnitude for
	// Duration, ramp back down (Duration 0 = permanent).
	FlashCrowd = storm.FlashCrowd
	// Trend is a linear growth or decay of offered load.
	Trend = storm.Trend
	// Squall is seeded random load spikes in fixed windows.
	Squall = storm.Squall
	// CompositeDrift multiplies several profiles.
	CompositeDrift = storm.Composite
	// DriftingEval caps a capacity evaluator's delivery at the offered
	// load of the measurement's simulated time, reporting OfferedLoad
	// and Backpressured on every Result.
	DriftingEval = storm.DriftingEval
	// TimedEvaluator is an Evaluator whose measurements depend on the
	// simulated time (RunAt); session backends dispatch to it when the
	// session carries a clock.
	TimedEvaluator = storm.TimedEvaluator
)

// Drifting wraps a capacity evaluator in a time-varying offered load:
// delivered throughput is min(capacity, baseLoad·profile.Factor(t)).
// A nil profile means a constant offered load of baseLoad.
func Drifting(ev Evaluator, profile DriftProfile, baseLoad float64) *DriftingEval {
	return storm.Drifting(ev, profile, baseLoad)
}

// ComposeDrift multiplies drift profiles into one.
func ComposeDrift(parts ...DriftProfile) DriftProfile { return storm.Compose(parts...) }

// ParseDrift parses a drift spec like
// "diurnal:period=86400,amplitude=0.4;flash:at=3600,magnitude=2"
// (the -drift flag syntax); empty and "none" mean no drift.
func ParseDrift(spec string) (DriftProfile, error) { return storm.ParseDrift(spec) }

// Continuous-tuning types re-exported from the watch and core packages.
type (
	// MonitorOptions tune the degradation monitor: rolling-baseline
	// window, cooldown, or disabling it. It fires after three samples
	// in a row below 0.85 of the baseline (or lost), or two
	// backpressured ones.
	MonitorOptions = watch.MonitorOptions
	// RetuneOptions bound the conservative retune search: a trust
	// region around the incumbent that widens by 1.6 after two
	// improvements in a row and halves on any regression.
	RetuneOptions = core.RetuneOptions
	// HyperState is a serializable GP hyperparameter posterior,
	// captured from a running session (Tuner.HyperState) and fed to a
	// later one (RetuneOptions.InitHypers) to skip its cold
	// slice-sampling burn. Watches do this automatically between
	// their own episodes.
	HyperState = bo.HyperState
	// HoldSampled reports one monitoring measurement of the incumbent
	// while a watch holds.
	HoldSampled = core.HoldSampled
	// RetuneTriggered reports the degradation monitor firing: a retune
	// episode begins.
	RetuneTriggered = core.RetuneTriggered
	// RetuneCompleted reports a retune episode's outcome.
	RetuneCompleted = core.RetuneCompleted
)

// WatchPlan is a watch's budget and timeline: Steps is the initial
// tuning session's budget (default 40) and RetuneSteps each retune
// episode's (default max(8, Steps/4)); TrialCost is the simulated
// seconds one trial evaluation costs (default 60) and HoldInterval the
// simulated seconds between monitoring samples (default 60); Horizon
// stops the watch when the simulated clock reaches it (0 = run until
// ctx cancel or MaxEpisodes) and MaxEpisodes after that many retune
// episodes (0 = unlimited). Watch snapshots record it.
type WatchPlan = watch.Plan

// WatchOptions configure a continuous-tuning session.
type WatchOptions struct {
	// WatchPlan sets the session budgets, the simulated costs and the
	// stopping rules.
	WatchPlan
	// Set selects the searched parameters (default Hints).
	Set ParamSet
	// Template supplies the non-searched parameters; zero value uses
	// the paper's deployment defaults with hint 1.
	Template *Config
	// Cluster defaults to the paper's 80-machine cluster.
	Cluster *ClusterSpec
	// Seed drives the optimizers: the initial tune uses it directly,
	// retune episode e uses Seed+e (default 1).
	Seed int64
	// Monitor tunes the degradation monitor; Retune bounds the
	// conservative search.
	Monitor MonitorOptions
	Retune  RetuneOptions
	// Retry governs lost evaluations, exactly as in TunerOptions.
	Retry RetryPolicy
	// Observer receives the full event stream: session events plus
	// HoldSampled, RetuneTriggered and RetuneCompleted.
	Observer Observer
	// Recorder, when set, also receives every event and accumulates
	// the dashboard state — retune episodes appear in its snapshot's
	// Retunes list and as SSE markers.
	Recorder *Recorder
	// Snapshot, with SnapshotEvery > 0, receives a periodic WatchState
	// every SnapshotEvery completed trials or monitoring samples.
	Snapshot      func(*WatchState)
	SnapshotEvery int
	// Throttle paces monitoring samples in wall-clock time so a live
	// dashboard is watchable; zero runs the simulated timeline flat
	// out. Pacing only — no tuning decision reads the wall clock.
	Throttle time.Duration

	// Archive, when set, records every completed trial — initial tune
	// and retune episodes alike — into the store as evidence for
	// future warm starts. Record-only: a watch never warm-starts
	// itself (its retunes already seed from the running incumbent).
	// The record seals when Run finishes cleanly (horizon or episode
	// budget reached); a cancelled watch stays unsealed for re-attach.
	// The record's key is derived from the topology fingerprint and
	// seed; a resumed watch reuses the snapshot's.
	Archive Archive

	// OptimizerOptions are forwarded to every session's Bayesian
	// strategy, as in TunerOptions.
	OptimizerOptions
}

// Watcher is a tuning session that never ends: tune, hold while a
// degradation monitor watches the incumbent, conservatively retune
// when it fires, repeat. Built by NewWatcher (or ResumeWatcher),
// driven by Run; Snapshot freezes it — mid-retune included — into a
// serializable WatchState.
type Watcher struct {
	c        *watch.Controller
	opts     WatchOptions
	topoName string
	topoN    int
	// arec archives every completed trial at its run index, which
	// counts up across the watch's sessions; archiveKey is its record
	// key, kept from the snapshot by a watch resumed without an archive.
	arec       *core.ArchiveRecorder
	archiveKey string
}

// NewWatcher starts a continuous-tuning session for a topology against
// a backend — typically AsBackend(Drifting(sim, profile, load)) for the
// simulated cluster, or any Backend whose measurements honor
// Trial.SimTime.
func NewWatcher(t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	return newWatcher(t, b, opts, nil)
}

// newWatcher is the one build path of a Watcher: NewWatcher passes
// st == nil, ResumeWatcher the snapshot whose fields it folded into
// opts. Only the controller, the archive backfill and the recorder's
// priming depend on st.
func newWatcher(t *Topology, b Backend, opts WatchOptions, st *WatchState) (*Watcher, error) {
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	if b == nil {
		return nil, fmt.Errorf("stormtune: watch needs a backend")
	}
	opts.Seed, opts.Cluster, opts.Template = resolveEnv(t, opts.Seed, opts.Cluster, opts.Template)
	w := &Watcher{topoName: t.Name, topoN: t.N()}
	if st != nil {
		w.archiveKey = st.ArchiveKey
	}
	observer := composeObserver(opts.Recorder, opts.Observer)
	if opts.Archive != nil {
		if w.archiveKey == "" {
			w.archiveKey = deriveArchiveKey(opts.Archive, t.Name, t.Fingerprint(), "watch", opts.Seed)
		}
		meta := core.SessionMetaFor(w.archiveKey, t, *opts.Cluster, "watch", opts.Set, opts.Seed)
		var err error
		if w.arec, err = core.NewArchiveRecorder(opts.Archive, meta); err != nil {
			return nil, fmt.Errorf("stormtune: archive: %w", err)
		}
		observer = core.MultiObserver(observer, w.arec)
	}
	w.opts = opts
	wo := watch.Options{
		Plan:          opts.WatchPlan,
		Monitor:       opts.Monitor,
		Retune:        opts.Retune,
		Retry:         opts.Retry,
		Observer:      observer,
		SnapshotEvery: opts.SnapshotEvery,
		Throttle:      opts.Throttle,
	}
	if hook := opts.Snapshot; hook != nil {
		wo.Snapshot = func(st *watch.State) { hook(w.wrapState(st)) }
	}
	bopts := boOptions(opts.Set, opts.Seed, opts.OptimizerOptions)
	if st == nil {
		w.c = watch.New(t, *opts.Cluster, *opts.Template, b, bopts, wo)
		return w, nil
	}
	var err error
	if w.c, err = watch.Resume(st.Watch, t, *opts.Cluster, *opts.Template, b, bopts, wo); err != nil {
		return nil, err
	}
	// As in newTuner: replay emits no events, so the in-flight
	// session's records are backfilled (at their run indices) and the
	// recorder is primed with them.
	if sess := st.Watch.Session; sess != nil {
		if w.arec != nil {
			w.arec.Backfill(sess)
		}
		if opts.Recorder != nil {
			opts.Recorder.Prime(sess)
		}
	}
	return w, nil
}

// Run drives the watch until ctx is cancelled, the horizon is reached,
// or MaxEpisodes episodes have completed. On cancellation all state
// stays intact: call Snapshot for a resumable WatchState. A clean
// finish seals the watch's archive record (when one is configured).
func (w *Watcher) Run(ctx context.Context) error {
	if err := w.c.Run(ctx); err != nil || w.arec == nil {
		return err
	}
	if err := w.arec.Seal(nil); err != nil {
		return err
	}
	return w.arec.Err()
}

// ArchiveKey returns the key this watch records under, empty without
// an archive.
func (w *Watcher) ArchiveKey() string {
	if w.arec == nil {
		return ""
	}
	return w.arec.Key()
}

// Incumbent returns the configuration currently held and its measured
// objective; ok is false before the initial tune completes.
func (w *Watcher) Incumbent() (Config, float64, bool) {
	inc, ok := w.c.Incumbent()
	return inc.Config, inc.Y, ok
}

// Episodes returns the number of completed retune episodes.
func (w *Watcher) Episodes() int { return w.c.Episodes() }

// SimTime returns the watch's current simulated time in seconds.
func (w *Watcher) SimTime() float64 { return w.c.Clock().Now() }

// WatchState is the serializable snapshot of a Watcher: the
// environment needed to rebuild the strategies plus the controller's
// frozen progress (phase, clock, incumbent, monitor, and — when taken
// mid-tune or mid-retune — the in-flight session's own state).
type WatchState struct {
	Version  int      `json:"version"`
	Topology string   `json:"topology"`
	Nodes    int      `json:"nodes"`
	Set      ParamSet `json:"set"`
	Seed     int64    `json:"seed"`
	// The plan's and the knobs' fields are written inline, here: the
	// embeddings' positions fix their place in the snapshot bytes.
	WatchPlan
	OptimizerOptions
	Template Config         `json:"template"`
	Cluster  ClusterSpec    `json:"cluster"`
	Monitor  MonitorOptions `json:"monitor"`
	Retune   RetuneOptions  `json:"retune"`
	// Retry is the watch's retry policy, nil when it never retries; a
	// resume without a policy of its own keeps it.
	Retry *RetryPolicy `json:"retry,omitempty"`
	// ArchiveKey is the archive record key the watch appended under;
	// resume re-attaches it when opts.Archive is passed again.
	ArchiveKey string       `json:"archiveKey,omitempty"`
	Watch      *watch.State `json:"watch"`
}

const watchStateVersion = 1

func (w *Watcher) wrapState(st *watch.State) *WatchState {
	o := w.opts
	var retry *RetryPolicy
	if o.Retry != (RetryPolicy{}) {
		retry = &o.Retry
	}
	return &WatchState{
		Version:          watchStateVersion,
		Topology:         w.topoName,
		Nodes:            w.topoN,
		Set:              o.Set,
		Seed:             o.Seed,
		WatchPlan:        o.WatchPlan,
		OptimizerOptions: o.OptimizerOptions,
		Template:         *o.Template,
		Cluster:          *o.Cluster,
		Monitor:          o.Monitor,
		Retune:           o.Retune,
		Retry:            retry,
		ArchiveKey:       w.archiveKey,
		Watch:            st,
	}
}

// validate rejects a snapshot no entry point can resume: a nil one, an
// unknown version, or one without the controller's state. Callers add
// their own context to the error.
func (s *WatchState) validate() error {
	switch {
	case s == nil:
		return errors.New("nil watch state")
	case s.Version != watchStateVersion:
		return fmt.Errorf("unsupported watch state version %d", s.Version)
	case s.Watch == nil:
		return errors.New("watch state has no controller state")
	}
	return nil
}

// Snapshot freezes the watch. Safe to call at any time — from an
// Observer callback or while Run is in flight.
func (w *Watcher) Snapshot() *WatchState { return w.wrapState(w.c.Snapshot()) }

// Save writes the snapshot as JSON.
func (s *WatchState) Save(wr io.Writer) error { return saveState(wr, s) }

// SaveFile atomically replaces path with the snapshot (the bytes Save
// writes): a crash mid-save leaves the previous snapshot in place.
func (s *WatchState) SaveFile(path string) error { return journal.WriteFile(path, s.Save) }

// LoadWatchState reads a snapshot from r.
func LoadWatchState(r io.Reader) (*WatchState, error) { return loadState[WatchState](r, "watch state") }

// LoadWatchStateFile reads a snapshot from a file.
func LoadWatchStateFile(path string) (*WatchState, error) {
	return loadStateFile[WatchState](path, "watch state")
}

// ResumeWatcher rebuilds a watch from a snapshot against the same
// topology and a backend of the caller's choice. An in-flight session
// snapshot is replayed against a freshly reconstructed strategy
// (fingerprint-checked), so the resumed watch continues bit-identically
// to one that was never interrupted — mid-retune included. opts carries
// only the non-serializable pieces: Observer, Recorder, Snapshot hook,
// Throttle, the Archive to re-attach, and a Retry policy fitting the new
// backend (a zero one keeps the snapshot's, as in ResumeTuner);
// everything else comes from the snapshot.
func ResumeWatcher(st *WatchState, t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: resume: %w", err)
	}
	if err := checkResumeTopology(t, st.Nodes, st.Topology); err != nil {
		return nil, err
	}
	retry := opts.Retry
	if retry == (RetryPolicy{}) && st.Retry != nil {
		retry = *st.Retry
	}
	return newWatcher(t, b, WatchOptions{
		WatchPlan:        st.WatchPlan,
		Set:              st.Set,
		Seed:             st.Seed,
		Monitor:          st.Monitor,
		Retune:           st.Retune,
		OptimizerOptions: st.OptimizerOptions,
		Template:         &st.Template,
		Cluster:          &st.Cluster,
		Retry:            retry,
		Observer:         opts.Observer,
		Recorder:         opts.Recorder,
		Snapshot:         opts.Snapshot,
		SnapshotEvery:    opts.SnapshotEvery,
		Throttle:         opts.Throttle,
		Archive:          opts.Archive,
	}, st)
}

// Watch is the high-level entry point: build a watcher and run it
// until ctx is cancelled or its horizon/episode budget is spent.
func Watch(ctx context.Context, t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	w, err := NewWatcher(t, b, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Run(ctx); err != nil {
		return w, err
	}
	return w, nil
}
