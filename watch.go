package stormtune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"stormtune/internal/archive"
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
	// window, degrade factor, sustain counts (hysteresis), cooldown.
	MonitorOptions = watch.MonitorOptions
	// RetuneOptions bound the conservative retune search: a trust
	// region around the incumbent that widens after consecutive
	// improvements and shrinks on regressions.
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
	Archive Archive
	// ArchiveKey pins the archive record key; empty derives one from
	// the topology fingerprint and seed. Resume reuses the snapshot's.
	ArchiveKey string

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
	arch     *watchArchiver
}

// watchArchiver appends a watch's completed trials to an archive under
// one key, numbering them with its own monotone counter — watch
// episodes restart session-local trial IDs, so the session step cannot
// serve as the archive step. The counter resumes from the store's
// cursor so a resumed watch continues the numbering.
type watchArchiver struct {
	store Archive
	key   string
	mu    sync.Mutex
	step  int
	err   error
}

// OnEvent implements Observer.
func (a *watchArchiver) OnEvent(e Event) {
	tc, ok := e.(TrialCompleted)
	if !ok {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	a.step++
	y := tc.Result.Throughput
	if tc.Result.Failed {
		y = 0
	}
	a.err = a.store.Append(a.key, archive.TrialRecord{
		Step: a.step, Config: tc.Trial.Config, Y: y, Failed: tc.Result.Failed,
	})
}

func (a *watchArchiver) seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	return a.store.Seal(a.key, nil)
}

// newWatchArchiver registers (or re-attaches) the watch in the store.
func newWatchArchiver(store Archive, key string, t *Topology, spec ClusterSpec, set ParamSet, seed int64) (*watchArchiver, error) {
	meta := core.SessionMetaFor(key, t, spec, "watch", set, seed)
	if err := store.Begin(meta); err != nil {
		return nil, fmt.Errorf("stormtune: archive: %w", err)
	}
	return &watchArchiver{store: store, key: key, step: store.LastStep(key)}, nil
}

// watchOptions converts the public options into the controller's.
func (w *Watcher) watchOptions(o WatchOptions) watch.Options {
	wo := watch.Options{
		Plan:          o.WatchPlan,
		Monitor:       o.Monitor,
		Retune:        o.Retune,
		Retry:         o.Retry,
		Observer:      composeObserver(o.Recorder, o.Observer),
		SnapshotEvery: o.SnapshotEvery,
		Throttle:      o.Throttle,
	}
	if w.arch != nil {
		wo.Observer = core.MultiObserver(wo.Observer, w.arch)
	}
	if o.Snapshot != nil {
		hook := o.Snapshot
		wo.Snapshot = func(st *watch.State) { hook(w.wrapState(st)) }
	}
	return wo
}

// NewWatcher starts a continuous-tuning session for a topology against
// a backend — typically AsBackend(Drifting(sim, profile, load)) for the
// simulated cluster, or any Backend whose measurements honor
// Trial.SimTime.
func NewWatcher(t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	if b == nil {
		return nil, fmt.Errorf("stormtune: watch needs a backend")
	}
	opts.Seed, opts.Cluster, opts.Template = resolveEnv(t, opts.Seed, opts.Cluster, opts.Template)
	w := &Watcher{opts: opts, topoName: t.Name, topoN: t.N()}
	if opts.Archive != nil {
		key := opts.ArchiveKey
		if key == "" {
			key = deriveArchiveKey(opts.Archive, t.Name, t.Fingerprint(), "watch", opts.Seed)
		}
		arch, err := newWatchArchiver(opts.Archive, key, t, *opts.Cluster, opts.Set, opts.Seed)
		if err != nil {
			return nil, err
		}
		w.arch = arch
		w.opts.ArchiveKey = key
	}
	w.c = watch.New(t, *opts.Cluster, *opts.Template, b,
		boOptions(opts.Set, opts.Seed, opts.OptimizerOptions), w.watchOptions(opts))
	return w, nil
}

// Run drives the watch until ctx is cancelled, the horizon is reached,
// or MaxEpisodes episodes have completed. On cancellation all state
// stays intact: call Snapshot for a resumable WatchState. A clean
// finish seals the watch's archive record (when one is configured).
func (w *Watcher) Run(ctx context.Context) error {
	err := w.c.Run(ctx)
	if err == nil && w.arch != nil {
		return w.arch.seal()
	}
	return err
}

// ArchiveKey returns the key this watch records under, empty without
// an archive.
func (w *Watcher) ArchiveKey() string {
	if w.arch == nil {
		return ""
	}
	return w.arch.key
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
	// ArchiveKey is the archive record key the watch appended under;
	// resume re-attaches it when opts.Archive is passed again.
	ArchiveKey string       `json:"archiveKey,omitempty"`
	Watch      *watch.State `json:"watch"`
}

const watchStateVersion = 1

func (w *Watcher) wrapState(st *watch.State) *WatchState {
	o := w.opts
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
		ArchiveKey:       o.ArchiveKey,
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
func (s *WatchState) Save(wr io.Writer) error {
	enc := json.NewEncoder(wr)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SaveFile atomically replaces path with the snapshot (the bytes Save
// writes): a crash mid-save leaves the previous snapshot in place.
func (s *WatchState) SaveFile(path string) error {
	return journal.WriteFile(path, s.Save)
}

// LoadWatchState reads a snapshot from r.
func LoadWatchState(r io.Reader) (*WatchState, error) {
	var s WatchState
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("stormtune: decoding watch state: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: %w", err)
	}
	return &s, nil
}

// LoadWatchStateFile reads a snapshot from a file.
func LoadWatchStateFile(path string) (*WatchState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWatchState(f)
}

// ResumeWatcher rebuilds a watch from a snapshot against the same
// topology and a backend of the caller's choice. An in-flight session
// snapshot is replayed against a freshly reconstructed strategy
// (fingerprint-checked), so the resumed watch continues bit-identically
// to one that was never interrupted — mid-retune included. opts carries
// only the non-serializable pieces: Observer, Recorder, Snapshot hook,
// Throttle and Retry; everything else comes from the snapshot.
func ResumeWatcher(st *WatchState, t *Topology, b Backend, opts WatchOptions) (*Watcher, error) {
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("stormtune: resume: %w", err)
	}
	if t == nil {
		return nil, fmt.Errorf("stormtune: nil topology")
	}
	if t.N() != st.Nodes {
		return nil, fmt.Errorf("stormtune: topology has %d nodes, snapshot was taken over %d (%s)",
			t.N(), st.Nodes, st.Topology)
	}
	if b == nil {
		return nil, fmt.Errorf("stormtune: watch needs a backend")
	}
	resolved := WatchOptions{
		WatchPlan:        st.WatchPlan,
		Set:              st.Set,
		Seed:             st.Seed,
		Monitor:          st.Monitor,
		Retune:           st.Retune,
		OptimizerOptions: st.OptimizerOptions,
		Template:         &st.Template,
		Cluster:          &st.Cluster,
		Retry:            opts.Retry,
		Observer:         opts.Observer,
		Recorder:         opts.Recorder,
		Snapshot:         opts.Snapshot,
		SnapshotEvery:    opts.SnapshotEvery,
		Throttle:         opts.Throttle,
	}
	w := &Watcher{opts: resolved, topoName: st.Topology, topoN: st.Nodes}
	if opts.Archive != nil {
		key := st.ArchiveKey
		if key == "" {
			key = deriveArchiveKey(opts.Archive, t.Name, t.Fingerprint(), "watch", st.Seed)
		}
		arch, aerr := newWatchArchiver(opts.Archive, key, t, st.Cluster, st.Set, st.Seed)
		if aerr != nil {
			return nil, aerr
		}
		w.arch = arch
		w.opts.Archive = opts.Archive
		w.opts.ArchiveKey = key
	}
	c, err := watch.Resume(st.Watch, t, st.Cluster, st.Template, b,
		boOptions(st.Set, st.Seed, st.OptimizerOptions), w.watchOptions(resolved))
	if err != nil {
		return nil, err
	}
	w.c = c
	// Prime the recorder with the in-flight session's history so a
	// dashboard attached to the resumed watch shows the pre-snapshot
	// trials.
	if resolved.Recorder != nil && st.Watch.Session != nil {
		resolved.Recorder.Prime(st.Watch.Session)
	}
	return w, nil
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
