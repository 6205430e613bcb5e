// Package stormtune is a reproduction of "Machines Tuning Machines:
// Configuring Distributed Stream Processors with Bayesian Optimization"
// (Fischer, Gao & Bernstein, IEEE CLUSTER 2015).
//
// It provides, as a library:
//
//   - a Storm/Trident cluster simulator that serves as the black-box
//     objective function (topology + configuration → measured
//     throughput), reproducing the mechanisms the paper identifies:
//     per-tuple busy-wait cost, resource contention that scales service
//     time with parallelism, mini-batch pipelining, acker bookkeeping,
//     receiver threads, scheduler capacity and measurement noise;
//   - a from-scratch Gaussian-process Bayesian optimizer in the style
//     of Spearmint (Matérn-5/2 ARD kernel, slice-sampled
//     hyperparameters, Expected Improvement);
//   - the GGen layer-by-layer topology generator and the paper's
//     synthetic workload modifications (time imbalance, resource
//     contention), plus the Sundog real-world topology;
//   - the four tuning strategies of the evaluation (pla, ipla, bo,
//     ibo), the §V-D parameter sets (h, h+bs+bp, bs+bp+cc) and the
//     experimental protocol (passes, early stopping, best-config
//     re-runs);
//   - an experiment harness regenerating every table and figure of the
//     evaluation (Table II, Figures 3–8), plus concurrent-trials
//     ("batch") and dispatch-mode ("async") scaling experiments.
//
// # Tuning sessions
//
// The paper's workflow is a long-running, interruptible session — §III-C
// notes that Spearmint's pause/resume "turned out to be important" on
// the shared lab cluster — and the API is built around that shape. A
// Tuner is an ask/tell session: Propose hands out Trials, the caller
// measures them however it wants (the bundled simulators, or a real
// cluster the library does not control), and Report feeds the results
// back:
//
//	tn, _ := stormtune.NewTuner(t, nil, stormtune.TunerOptions{Steps: 60})
//	for {
//		trials, _ := tn.Propose(ctx)
//		if len(trials) == 0 {
//			break
//		}
//		for _, tr := range trials {
//			tn.Report(tr, measure(tr.Config)) // your cluster here
//		}
//	}
//	best, _ := tn.Best()
//
// Three drivers automate the loop against a configured Backend, all
// honoring context cancellation and deadlines:
//
//   - Tuner.Run(ctx) — one trial at a time, the paper's procedure;
//   - Tuner.RunBatch(ctx, q) — barrier batches of q concurrently
//     evaluated constant-liar suggestions; every round waits for its
//     slowest trial;
//   - Tuner.RunAsync(ctx, q) — free-slot refill: up to q trials in
//     flight and a replacement proposed the moment any one completes,
//     which beats the barrier wall-clock when trial durations vary
//     (real deployments have stragglers); Run is RunAsync at q = 1.
//
// RunBatch and RunAsync clamp q to ClusterSpec.MaxConcurrentTrials
// (Tuner.MaxParallel) rather than oversubscribing the cluster.
//
// Sessions emit typed events (TrialStarted, TrialCompleted,
// TrialFailed, TrialRetried, NewBest, PassCompleted,
// ParallelismClamped) to a registered Observer — the CLI renders its
// live progress line from them — and can be paused at any point:
// Tuner.Snapshot serializes the records, pending trials (attempt
// counts included) and ask/tell log; ResumeTuner replays that log
// against a freshly built optimizer so the resumed run continues
// bit-identically to an uninterrupted one, RNG state included.
//
// # Backends, failures and retries
//
// Trials are evaluated through the Backend contract:
//
//	Run(ctx context.Context, tr Trial) (Result, error)
//
// ctx carries the session's cancellation and the trial's deadline
// (TunerOptions.TrialTimeout); Trial carries the configuration, run
// index, trial ID and retry attempt. The two return paths are distinct
// on purpose, following the observation that stream-processor
// measurements on shared infrastructure get lost, not just noisy:
//
//   - A Result with Failed set is a valid measurement of a bad
//     configuration — the scheduler could not place it
//     (FailurePlacement) — and teaches the optimizer to avoid the
//     region.
//   - A non-nil error means the measurement was lost: a timeout, a
//     dropped connection, a crashed worker. The session's RetryPolicy
//     (TunerOptions.Retry) re-dispatches the trial with exponential
//     backoff; because the retry re-uses the trial's RunIndex, a
//     recovered measurement is bit-identical to one that never failed.
//     When the attempt budget is spent, the session records a
//     pessimistic FailedResult (FailureEvaluation) and moves on.
//
// AsBackend adapts any Evaluator (both simulators, Averaged, Jittered)
// to the contract. Migrating pre-Backend code is mechanical:
//
//	tn, _ := stormtune.NewTuner(t, ev, opts)                      // before
//	tn, _ := stormtune.NewTuner(t, stormtune.AsBackend(ev), opts) // after
//
// Quick start with a driver:
//
//	t := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
//	ev := stormtune.NewFluidSim(t, stormtune.PaperCluster(), stormtune.SinkTuples, 1)
//	tn, _ := stormtune.NewTuner(t, stormtune.AsBackend(ev), stormtune.TunerOptions{Steps: 60})
//	res, _ := tn.RunAsync(ctx, 4)
//
// The legacy one-shot entry points (Tune, TuneBatch, AutoTune) are
// gone; NewTuner with a driver is the single way in.
//
// # Remote evaluation
//
// Any Backend can be served as a JSON-over-HTTP evaluation service and
// driven from another process — tuning as a service, decoupled from
// the machines that run the measurements. A worker is multi-tenant:
// NewBackendServer plus RegisterTopology build a server that routes
// each POST /run by the trial's topology fingerprint (the `stormtune
// serve -topology a,b` subcommand is a thin wrapper), optionally behind
// bearer-token auth (BackendServerOptions.Auth) and admission control
// (BackendServerOptions.Admission — refusals carry queue depth and a
// Retry-After estimate). NewRemoteBackend is the client:
//
//	// worker processes:  stormtune serve -addr 127.0.0.1:8077 -topology small,medium -token S
//	bk := stormtune.NewRemoteBackend("http://127.0.0.1:8077", stormtune.RemoteBackendOptions{
//		Auth: stormtune.RemoteCredentials{Token: "S"},
//	})
//	info, err := stormtune.CheckRemoteBackend(ctx, bk, t, stormtune.SinkTuples) // fail fast on mismatch
//	tn, _ := stormtune.NewTuner(t, bk, stormtune.TunerOptions{
//		Steps: 60,
//		Retry: stormtune.RetryPolicy{MaxAttempts: 4, Backoff: time.Second},
//	})
//	res, _ := tn.RunAsync(ctx, 4)
//
// A RemoteBackend is safe for concurrent trials; NewBackendPool
// combines one client per worker so a session (or a whole fleet of
// heterogeneous sessions) saturates a pool of worker processes, each
// trial routed to a member serving its topology. The pool sheds
// admission-refused trials to less-loaded members, evicts members whose
// transport keeps failing and re-probes them for readmission. Setting
// RemoteBackendOptions.Transport.Retries additionally re-POSTs requests
// whose transport failed (connection refused, reset) before involving
// the session at all — safe because evaluations are pure functions of
// (config, run index); it defaults to 0, so by default every lost round
// trip surfaces to the RetryPolicy like any other lost evaluation.
//
// # Live observability
//
// The session's event stream becomes a live surface through two
// composable pieces. A Recorder is an Observer that keeps the full
// event history plus the derived state a human watching a run wants:
// per-trial status (pending → running → retrying → done/failed),
// attempt counts, wall-clock timing, the incumbent and the best-so-far
// convergence curve — all queryable at any moment via
// Recorder.Snapshot. MultiObserver composes it with other observers,
// and TunerOptions.Recorder is the shorthand that wires one in next to
// TunerOptions.Observer:
//
//	rec := stormtune.NewRecorder()
//	tn, _ := stormtune.NewTuner(t, bk, stormtune.TunerOptions{
//		Steps:    60,
//		Recorder: rec,                                  // derived live state
//		Observer: stormtune.ObserverFunc(logEvent),     // still delivered
//	})
//
// NewDashboard serves a Recorder over HTTP: GET /api/state returns the
// full JSON snapshot (plus per-worker in-flight counts when
// DashboardOptions.PoolStats is wired to a BackendPool), GET
// /api/events is a Server-Sent-Events stream of the history with
// replay — ?after=N or the standard Last-Event-ID header resumes from
// any sequence number, so late subscribers and reconnecting browsers
// catch up before following live — GET /healthz is a liveness probe,
// and GET / is an embedded self-refreshing page rendering the
// incumbent curve and trial table. ServeDashboard runs it with a
// graceful, bounded shutdown; the CLI's `stormtune tune -dash :8090`
// serves it for the duration of a run. When resuming from a snapshot,
// ResumeTuner primes TunerOptions.Recorder with the snapshotted
// records first, so the rebuilt dashboard shows the whole incumbent
// trace, not just the continuation.
//
// # Fleet tuning
//
// A production tuning service runs many sessions at once — different
// topologies, budgets, strategies and seeds — over a bounded pool of
// evaluation capacity. NewFleet takes named FleetMembers (each a Tuner,
// usually sharing one BackendPool and each carrying its own Recorder)
// and Fleet.Run drives them all concurrently: a fleet-level scheduler
// grants every freed slot to one session by weighted fair share
// (stride scheduling — proportional to FleetMember.Weight, and no
// session starves), the total number of in-flight trials never exceeds
// FleetOptions.Slots, and each session is additionally capped by its
// cluster's concurrent-trial capacity. Sessions keep their full
// single-session behavior: retries, typed events, recorders,
// snapshots.
//
//	a, _ := stormtune.NewTuner(t, pool, optsA) // optsA.Recorder = stormtune.NewRecorder()
//	b, _ := stormtune.NewTuner(t, pool, optsB)
//	fleet, _ := stormtune.NewFleet(stormtune.FleetOptions{Slots: pool.Size()},
//		stormtune.FleetMember{Name: "a", Tuner: a},
//		stormtune.FleetMember{Name: "b", Tuner: b, Weight: 2})
//	results, _ := fleet.Run(ctx) // map[string]TuneResult, one per member
//
// Fleet.Status aggregates cross-session state (per-session progress,
// incumbents, slot occupancy) and NewFleetDashboard serves it over
// HTTP: GET /api/fleet is the aggregated JSON, GET / an embedded fleet
// index page, and every member with a Recorder gets a complete
// single-session dashboard — page, /api/state, replayable SSE
// /api/events — under /sessions/{name}/. The CLI's `stormtune fleet
// -manifest fleet.json -dash :8090` builds all of this from a small
// JSON manifest (workers, slots, sessions).
//
// # Continuous tuning
//
// A configuration tuned once is only optimal for the workload it was
// tuned under. Watch (and the `stormtune watch` subcommand) runs the
// session that never ends: an initial tune, then a hold phase probing
// the incumbent on the live stream while a degradation monitor keeps a
// noise-aware rolling baseline of utilization, then — on three samples
// in a row below 0.85 of the baseline (or lost), or two backpressured
// ones (hysteresis and a cooldown guard against noise and thrash) — a
// conservative retune, then back to holding. The retune is seeded from
// the incumbent and its candidates are bounded to a trust region
// around it that widens by 1.6 after two improvements in a row and
// halves on any regression, so exploration stays near what already
// works while production traffic rides on every trial. Retunes
// re-enter the normal ask/tell session loop, so
// retries, snapshots, Recorders and dashboards work unchanged; the
// typed HoldSampled, RetuneTriggered and RetuneCompleted events carry
// the episode stream to observers and the dashboard.
//
//	w, _ := stormtune.NewWatcher(t, stormtune.AsBackend(
//		stormtune.Drifting(ev, stormtune.FlashCrowd{At: 3600, Magnitude: 2}, 300)),
//		stormtune.WatchOptions{WatchPlan: stormtune.WatchPlan{Steps: 40, Horizon: 86400}})
//	_ = w.Run(ctx) // tune, hold, retune on drift, repeat
//
// Drifting wraps any Evaluator with a deterministic time-varying
// offered load (Diurnal, FlashCrowd, Trend, Squall, composed with
// ComposeDrift or parsed from a CLI spec by ParseDrift): the inner
// evaluator measures capacity, delivered throughput is min(capacity,
// offered), and trials whose capacity falls short are flagged
// backpressured. The whole loop runs on a simulated clock — no
// wall-clock read sits in any decision path — so a fixed seed replays
// the same episode sequence and a WatchState snapshot taken mid-retune
// resumes bit-identically (ResumeWatcher).
//
// # Transfer learning
//
// Every run above starts cold, rediscovering what previous runs over
// the same (or a similar) topology already learned. A session archive
// gives runs a memory. OpenArchive opens a persistent, crash-safe
// store (append-only JSON-lines segments plus an index, fsync on
// seal; NewMemArchive is the in-memory twin for tests); setting
// TunerOptions.Archive makes the session append a compact record per
// completed trial, keyed by the topology's structural fingerprint and
// a feature vector (component counts, depth, fan-out, TIIM class,
// contention, cluster dims). Records seal on a clean finish;
// a run killed mid-flight leaves its record unsealed so ResumeTuner
// can re-attach and continue appending without ever duplicating a
// trial.
//
// WarmStartOptions (off by default) turns the archived evidence into
// a head start: donors are ranked exact-fingerprint-first, then by
// weighted distance over the feature vector, and the incumbents and
// top configs of up to three donors replace up to half the LHS budget
// — mapped through matching parameter spaces only. With Prior set, the
// GP additionally fits around a kernel-smoothed prior mean built from
// the donors' z-scored observations, down-weighted by similarity.
// Donors below similarity 0.35 (exact fingerprint matches aside) are
// ignored and with none left the run stays cold, so a dissimilar
// archive never hurts; for a fixed archive snapshot and
// seed the warm-started run is bit-identical. Tuner.Transfer reports
// what was computed, and the Recorder/dashboard surface it as
// warmStarted, warmDonor and warmSimilarity in /api/state.
//
//	arch, _ := stormtune.OpenArchive("arch")
//	tn, _ := stormtune.NewTuner(t, backend, stormtune.TunerOptions{
//		Archive:   arch,
//		WarmStart: stormtune.WarmStartOptions{Enabled: true, Prior: true},
//	})
//
// A Fleet can share one archive: FleetOptions.ShareIncumbents makes a
// NewBest in one member re-rank its siblings' warm-start pools at
// the start of their next ask, and SealFleetArchives seals every
// member's record after a clean fleet run. The CLI wires all of this
// behind `-archive DIR` on tune, fleet and watch, and `stormtune
// archive list|show|gc|export|import` inspects and manages the store
// (gc drops unsealed records nothing will resume; export/import move
// evidence between archives as JSON lines).
//
// # Concurrent trials
//
// The paper evaluates one configuration at a time, but a real cluster
// can host several trial deployments side by side. The optimizer's
// SuggestBatch(q) proposes q configurations per round using the
// constant-liar strategy: each already-suggested but unmeasured point
// is conditioned into the surrogate with a fantasy objective (the worst
// observed value by default), so the acquisition spreads the batch over
// the landscape instead of proposing the same maximum q times. The BO
// strategies expose this through core.BatchStrategy, and
// ClusterSpec.MaxConcurrentTrials bounds a sensible q. Internally an
// ask splits the acquisition candidate grid and the per-hyper-sample
// GP refits across GOMAXPROCS goroutines; results are bit-identical
// for any GOMAXPROCS and fixed seed.
//
// # Determinism contracts
//
// The guarantees above — bit-identical results for a fixed seed and
// any GOMAXPROCS, and snapshot/resume runs indistinguishable from
// uninterrupted ones — depend on invariants that are easy to erode:
// no global or wall-clock-seeded RNGs in the proposal path, no
// wall-clock reads in decision logic, no map-iteration order leaking
// into emitted output, no observer dispatch under a held lock, and
// contexts threaded through parameters rather than stored. These are
// enforced mechanically by the repo's own analyzer suite
// (internal/lint, run as `go run ./cmd/stormlint ./...` by `make
// lint` and CI); intentional exceptions carry //lint: directives with
// their justification. See README "Static analysis".
//
// See the examples directory for runnable programs (examples/quickstart
// for the session API, examples/resume for snapshot/resume),
// ARCHITECTURE.md for the layer map and the incremental-GP cache
// design, and DESIGN.md for the mapping between paper artifacts and
// modules.
package stormtune
