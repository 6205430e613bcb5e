// Package watch implements continuous tuning: a session that never
// ends. A Controller tunes a topology to convergence, then holds —
// periodically re-measuring the incumbent on a simulated timeline
// while a Monitor watches for sustained degradation or backpressure —
// and when the monitor fires it runs a conservative retune episode (a
// trust-region BO session seeded from the incumbent, see
// core.NewRetuneBO) before holding again, repeating until the context
// is cancelled, a horizon is reached, or an episode budget is spent.
//
// Everything is driven by the simulated clock: trials cost TrialCost
// simulated seconds, monitoring samples HoldInterval, and no decision
// reads the wall clock (stormlint's nowallclock contract covers this
// package). A watch snapshots to a serializable State at any moment —
// mid-retune included — and resumes bit-identically.
package watch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// Phase is where a watch is in its tune → hold → retune → hold cycle.
type Phase string

// Watch phases.
const (
	// PhaseTune is the initial cold tuning session.
	PhaseTune Phase = "tune"
	// PhaseHold is monitoring: the incumbent is deployed and sampled.
	PhaseHold Phase = "hold"
	// PhaseRetune is a conservative retune episode.
	PhaseRetune Phase = "retune"
	// PhaseDone marks a watch that exited cleanly (horizon reached or
	// episode budget spent).
	PhaseDone Phase = "done"
)

// holdRunBase offsets monitoring-sample run indices far past any
// session's trial indices, so hold samples draw independent noise and
// never collide with tuning measurements.
const holdRunBase = 1 << 20

// historyCap bounds the warm-start observations carried between
// episodes, keeping retune GP fits cheap on long watches.
const historyCap = 40

// Plan is a watch's budget and timeline: the session budgets, what
// trials and monitoring samples cost on the simulated clock, and when
// the watch stops. Watch snapshots record it (the JSON tags are the
// snapshot field names), so a resumed watch keeps the same plan.
type Plan struct {
	// Steps is the initial tuning session's budget (default 40).
	Steps int `json:"steps"`
	// RetuneSteps is each retune episode's budget (default
	// max(8, Steps/4)).
	RetuneSteps int `json:"retuneSteps,omitempty"`
	// TrialCost is the simulated seconds one trial evaluation takes
	// (default 60) — how fast the timeline moves while tuning.
	TrialCost float64 `json:"trialCost,omitempty"`
	// HoldInterval is the simulated seconds between monitoring samples
	// (default 60).
	HoldInterval float64 `json:"holdInterval,omitempty"`
	// Horizon stops the watch when the simulated clock reaches it;
	// 0 means no horizon (run until ctx cancel or MaxEpisodes).
	Horizon float64 `json:"horizon,omitempty"`
	// MaxEpisodes stops the watch after this many completed retune
	// episodes; 0 means unlimited.
	MaxEpisodes int `json:"maxEpisodes,omitempty"`
}

func (p Plan) steps() int {
	if p.Steps <= 0 {
		return 40
	}
	return p.Steps
}

func (p Plan) retuneSteps() int {
	if p.RetuneSteps > 0 {
		return p.RetuneSteps
	}
	if s := p.steps() / 4; s > 8 {
		return s
	}
	return 8
}

func (p Plan) trialCost() float64 {
	if p.TrialCost <= 0 {
		return 60
	}
	return p.TrialCost
}

func (p Plan) holdInterval() float64 {
	if p.HoldInterval <= 0 {
		return 60
	}
	return p.HoldInterval
}

// Options configure a watch.
type Options struct {
	// Plan sets the session budgets, the simulated costs and the
	// stopping rules.
	Plan
	// Monitor tunes the degradation monitor; Retune bounds the
	// conservative search.
	Monitor MonitorOptions
	Retune  core.RetuneOptions
	// Retry is the per-trial retry policy of the tuning sessions.
	Retry core.RetryPolicy
	// Observer receives every session event plus the watch's own
	// HoldSampled / RetuneTriggered / RetuneCompleted stream; nil
	// disables.
	Observer core.Observer
	// Snapshot, when set with SnapshotEvery > 0, receives a periodic
	// State — every SnapshotEvery completed trials or monitoring
	// samples — so a killed watch resumes from recent state.
	Snapshot      func(*State)
	SnapshotEvery int
	// Throttle paces the hold loop in wall-clock time (one sample per
	// Throttle) so a live dashboard is watchable; zero runs the
	// timeline as fast as the simulator allows. Pacing only — no
	// decision reads it.
	Throttle time.Duration
}

// Controller runs the continuous-tuning loop. Build one with New (or
// Resume), then call Run; Snapshot is safe from any goroutine,
// including observer callbacks.
type Controller struct {
	topology *topo.Topology
	spec     cluster.Spec
	template storm.Config
	boOpts   core.BOOptions
	bk       core.Backend
	opts     Options
	clock    *Clock
	monitor  *Monitor
	obs      core.Observer

	mu        sync.Mutex
	phase     Phase
	episode   int
	holdCount int
	runOffset int
	sessSeed  int64
	incumbent *core.WarmObservation
	history   []core.WarmObservation
	hypers    *bo.HyperState
	sess      *core.Session
	sinceSnap int
}

// New builds a fresh watch over a topology. boOpts.Seed seeds the
// initial tuning session; episode e's retune session uses Seed+e, so
// every session in the watch is independently reproducible.
func New(t *topo.Topology, spec cluster.Spec, template storm.Config, bk core.Backend,
	boOpts core.BOOptions, opts Options) *Controller {
	if boOpts.Seed == 0 {
		boOpts.Seed = 1
	}
	c := &Controller{
		topology: t, spec: spec, template: template, boOpts: boOpts,
		bk: bk, opts: opts,
		clock:    NewClock(0),
		monitor:  NewMonitor(opts.Monitor),
		phase:    PhaseTune,
		sessSeed: boOpts.Seed,
	}
	c.obs = core.MultiObserver(c.monitor, opts.Observer)
	return c
}

// Clock exposes the watch's simulated clock (read-only use intended).
func (c *Controller) Clock() *Clock { return c.clock }

// Incumbent returns the configuration the watch currently holds and
// its measured objective; ok is false before the initial tune
// completes.
func (c *Controller) Incumbent() (core.WarmObservation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.incumbent == nil {
		return core.WarmObservation{}, false
	}
	return *c.incumbent, true
}

// Episodes returns the number of completed retune episodes.
func (c *Controller) Episodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.episode
}

func (c *Controller) emit(e core.Event) {
	if c.obs != nil {
		c.obs.OnEvent(e)
	}
}

// sessionObserver wires a tuning session into the watch: events are
// forwarded to the composed observer, the simulated clock advances one
// TrialCost per completed trial, and the periodic snapshot hook runs.
func (c *Controller) sessionObserver() core.Observer {
	return core.ObserverFunc(func(e core.Event) {
		c.emit(e)
		if _, ok := e.(core.TrialCompleted); ok {
			c.clock.Advance(c.opts.trialCost())
			c.maybeSnapshot()
		}
	})
}

// maybeSnapshot invokes the snapshot callback when SnapshotEvery
// progress units have passed since the last one. The counter is
// guarded by mu; the snapshot itself is taken after release so the
// callback never runs under the controller lock.
func (c *Controller) maybeSnapshot() {
	if c.opts.Snapshot == nil || c.opts.SnapshotEvery <= 0 {
		return
	}
	c.mu.Lock()
	c.sinceSnap++
	due := c.sinceSnap >= c.opts.SnapshotEvery
	if due {
		c.sinceSnap = 0
	}
	c.mu.Unlock()
	if due {
		c.opts.Snapshot(c.Snapshot())
	}
}

func (c *Controller) setPhase(p Phase) {
	c.mu.Lock()
	c.phase = p
	c.mu.Unlock()
}

// Run drives the watch until ctx is cancelled, the horizon is
// reached, or MaxEpisodes retune episodes have completed. On
// cancellation it returns ctx's error with all state intact — call
// Snapshot for a resumable State.
func (c *Controller) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		phase := c.phase
		c.mu.Unlock()
		switch phase {
		case PhaseTune:
			if err := c.runTune(ctx); err != nil {
				return err
			}
			c.setPhase(PhaseHold)
		case PhaseHold:
			next, err := c.runHold(ctx)
			if err != nil {
				return err
			}
			c.setPhase(next)
		case PhaseRetune:
			if err := c.runRetune(ctx); err != nil {
				return err
			}
			c.mu.Lock()
			done := c.opts.MaxEpisodes > 0 && c.episode >= c.opts.MaxEpisodes
			c.mu.Unlock()
			if done {
				c.setPhase(PhaseDone)
			} else {
				c.setPhase(PhaseHold)
			}
		case PhaseDone:
			return nil
		default:
			return fmt.Errorf("watch: unknown phase %q", phase)
		}
	}
}

// sessionOptions builds the SessionOptions every watch session shares.
func (c *Controller) sessionOptions(steps, runOffset int) core.SessionOptions {
	return core.SessionOptions{
		MaxSteps:  steps,
		RunOffset: runOffset,
		Retry:     c.opts.Retry,
		Observer:  c.sessionObserver(),
		Clock:     c.clock,
	}
}

// runTune runs (or, after a resume, finishes) the initial tuning
// session and installs its best configuration as the incumbent.
func (c *Controller) runTune(ctx context.Context) error {
	c.mu.Lock()
	sess := c.sess
	if sess == nil {
		strat := core.NewBO(c.topology, c.spec, c.template, c.seededBO(c.sessSeed))
		sess = core.NewSession(strat, c.bk, c.sessionOptions(c.opts.steps(), c.runOffset))
		c.sess = sess
	}
	c.mu.Unlock()
	res, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	best, found := res.Best()
	if !found {
		return fmt.Errorf("watch: initial tune found no working configuration")
	}
	c.mu.Lock()
	c.adoptSessionLocked(sess, res, best)
	c.mu.Unlock()
	return nil
}

// adoptSessionLocked folds a finished session into the watch state:
// the incumbent, the warm-start history, the hyperparameter posterior
// and the cumulative run-index offset. Callers hold mu.
func (c *Controller) adoptSessionLocked(sess *core.Session, res core.TuneResult, best core.RunRecord) {
	c.incumbent = &core.WarmObservation{Config: best.Config, Y: best.Result.Throughput}
	if bs, ok := sess.Strategy().(*core.BOStrategy); ok {
		if hs := bs.HyperState(); hs != nil {
			c.hypers = hs
		}
	}
	for _, r := range res.Records {
		y := r.Result.Throughput
		if r.Result.Failed {
			y = 0
		}
		c.history = append(c.history, core.WarmObservation{Config: r.Config, Y: y})
	}
	if len(c.history) > historyCap {
		c.history = c.history[len(c.history)-historyCap:]
	}
	c.runOffset += sess.Snapshot().Issued
	c.sess = nil
}

// runHold samples the incumbent on the simulated timeline until the
// monitor fires (→ PhaseRetune), the horizon or episode budget ends
// the watch (→ PhaseDone), or ctx is cancelled.
func (c *Controller) runHold(ctx context.Context) (Phase, error) {
	interval := c.opts.holdInterval()
	for {
		if err := ctx.Err(); err != nil {
			return PhaseHold, err
		}
		now := c.clock.Now()
		if c.opts.Horizon > 0 && now >= c.opts.Horizon {
			return PhaseDone, nil
		}
		c.mu.Lock()
		inc := *c.incumbent
		c.holdCount++
		idx := c.holdCount
		c.mu.Unlock()
		tr := core.Trial{ID: idx, Config: inc.Config, RunIndex: holdRunBase + idx, SimTime: now}
		res, err := c.bk.Run(ctx, tr)
		if err != nil {
			if ctx.Err() != nil {
				// The sample never happened; rewind so the resumed watch
				// takes it with the same run index.
				c.mu.Lock()
				c.holdCount--
				c.mu.Unlock()
				return PhaseHold, ctx.Err()
			}
			// A lost monitoring sample is itself evidence of trouble:
			// record it as a failed measurement and let the monitor's
			// hysteresis decide whether it sustains.
			res = storm.FailedResult(storm.FailureEvaluation, err.Error())
		}
		base, _ := c.monitor.Baseline()
		c.emit(core.HoldSampled{SimTime: now, Result: res, Baseline: base})
		c.maybeSnapshot()
		if trig, fired := c.monitor.TakeTrigger(); fired {
			c.mu.Lock()
			allowed := c.opts.MaxEpisodes == 0 || c.episode < c.opts.MaxEpisodes
			var episode int
			if allowed {
				c.episode++
				episode = c.episode
				c.sessSeed = c.boOpts.Seed + int64(c.episode)
				c.phase = PhaseRetune
			}
			c.mu.Unlock()
			if allowed {
				c.emit(core.RetuneTriggered{
					Episode: episode, SimTime: trig.SimTime,
					Baseline: trig.Baseline, Current: trig.Current, Reason: trig.Reason,
				})
				return PhaseRetune, nil
			}
		}
		c.clock.Advance(interval)
		if c.opts.Throttle > 0 {
			// Wall-clock pacing for live dashboards; the timeline above
			// is untouched by it.
			t := time.NewTimer(c.opts.Throttle)
			select {
			case <-ctx.Done():
				t.Stop()
				return PhaseHold, ctx.Err()
			case <-t.C:
			}
		}
	}
}

// runRetune runs (or, after a resume, finishes) one conservative
// retune episode and installs its outcome as the incumbent.
func (c *Controller) runRetune(ctx context.Context) error {
	c.mu.Lock()
	episode := c.episode
	sess := c.sess
	if sess == nil {
		strat := c.retuneStrategyLocked()
		sess = core.NewSession(strat, c.bk, c.sessionOptions(c.opts.retuneSteps(), c.runOffset))
		c.sess = sess
	}
	c.mu.Unlock()
	res, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	best, found := res.Best()
	c.mu.Lock()
	prev := *c.incumbent
	if !found || best.Result.Throughput <= prev.Y {
		// No retune trial beat the incumbent: keep it. The episode
		// still consumed timeline and budget, which the events record.
		bestRec := core.RunRecord{Config: prev.Config, Result: storm.Result{Throughput: prev.Y}}
		c.adoptSessionLocked(sess, res, bestRec)
		now := c.clock.Now()
		c.mu.Unlock()
		c.monitor.Reset()
		c.emit(core.RetuneCompleted{
			Episode: episode, SimTime: now, Steps: len(res.Records),
			Best: bestRec, Found: found,
		})
		return nil
	}
	c.adoptSessionLocked(sess, res, best)
	now := c.clock.Now()
	c.mu.Unlock()
	c.monitor.Reset()
	c.emit(core.RetuneCompleted{
		Episode: episode, SimTime: now, Steps: len(res.Records),
		Best: best, Found: true,
	})
	return nil
}

// retuneStrategyLocked builds the episode's conservative strategy from
// the current incumbent, history and captured hyperparameter
// posterior. The freshest captured posterior wins over any
// caller-supplied Retune.InitHypers, which only seeds episodes run
// before the watch has completed a session of its own. Callers hold mu.
func (c *Controller) retuneStrategyLocked() core.Strategy {
	ro := c.opts.Retune
	if c.hypers != nil {
		ro.InitHypers = c.hypers
	}
	return core.NewRetuneBO(c.topology, c.spec, c.template, c.seededBO(c.sessSeed),
		*c.incumbent, c.history, ro)
}

// seededBO returns the watch's BO options with the session seed.
func (c *Controller) seededBO(seed int64) core.BOOptions {
	o := c.boOpts
	o.Seed = seed
	return o
}
