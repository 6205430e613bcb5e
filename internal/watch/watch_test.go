package watch

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

func watchTopo() *topo.Topology {
	return topo.MustNew("t",
		[]topo.Node{
			{Name: "s", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "a", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "b", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "c", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
}

func watchSpec() cluster.Spec {
	return cluster.Spec{Machines: 8, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 16, ThrashTasksPerCore: 4}
}

func fastBO() core.BOOptions {
	return core.BOOptions{
		Opt:  bo.Options{Knobs: bo.Knobs{Candidates: 120, HyperSamples: 2, LocalSearchIters: 4}},
		Seed: 1,
	}
}

// flashEval wraps the deterministic fluid simulator in a drifting
// workload: offered load 300 until t=2000, then a permanent flash
// crowd doubles it to 600 (capacity headroom exists — the topology
// tops out near 625).
func flashEval(tp *topo.Topology) *storm.DriftingEval {
	f := storm.NewFluidSim(tp, watchSpec(), storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	return storm.Drifting(f, storm.FlashCrowd{At: 2000, Magnitude: 2}, 300)
}

// eventLog collects the typed event stream; the watch emits from a
// single goroutine but the mutex keeps the race detector satisfied
// when tests read the log afterwards.
type eventLog struct {
	mu     sync.Mutex
	events []core.Event
}

func (l *eventLog) OnEvent(e core.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) all() []core.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]core.Event(nil), l.events...)
}

func watchOpts(obs core.Observer) Options {
	return Options{
		Plan:     Plan{Steps: 12, RetuneSteps: 10, TrialCost: 60, HoldInterval: 60, MaxEpisodes: 1},
		Monitor:  MonitorOptions{Window: 6},
		Observer: obs,
	}
}

// The headline behavior: under a flash crowd the watch detects the
// sustained shortfall, runs one conservative retune episode, and
// installs an incumbent that delivers strictly more of the new offered
// load than the old one did.
func TestWatchFlashCrowdTriggersRetune(t *testing.T) {
	tp := watchTopo()
	log := &eventLog{}
	c := New(tp, watchSpec(), storm.DefaultSyntheticConfig(tp, 1),
		core.AsBackend(flashEval(tp)), fastBO(), watchOpts(log))

	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Episodes() != 1 {
		t.Fatalf("episodes = %d, want 1", c.Episodes())
	}

	var trig *core.RetuneTriggered
	var done *core.RetuneCompleted
	holds := 0
	for _, e := range log.all() {
		switch ev := e.(type) {
		case core.RetuneTriggered:
			if trig != nil {
				t.Fatal("more than one RetuneTriggered for a single episode")
			}
			trig = &ev
		case core.RetuneCompleted:
			done = &ev
		case core.HoldSampled:
			holds++
		}
	}
	if trig == nil || done == nil {
		t.Fatalf("trigger/completion missing: %v %v", trig, done)
	}
	if trig.SimTime < 2000 {
		t.Fatalf("triggered at t=%v, before the flash crowd", trig.SimTime)
	}
	if trig.Reason != "backpressure" && trig.Reason != "degradation" {
		t.Fatalf("trigger reason %q", trig.Reason)
	}
	if holds < 10 {
		t.Fatalf("only %d monitoring samples before the trigger", holds)
	}
	if done.Episode != trig.Episode || done.Episode != 1 {
		t.Fatalf("episode numbering: trig %d done %d", trig.Episode, done.Episode)
	}

	// The initial incumbent delivered the pre-flash plateau (300). The
	// retuned incumbent is measured under the doubled load, and must
	// beat what the old configuration could deliver there.
	inc, ok := c.Incumbent()
	if !ok {
		t.Fatal("no incumbent after the watch")
	}
	if inc.Y <= 300 {
		t.Fatalf("retuned incumbent delivers %v, no better than the pre-flash plateau", inc.Y)
	}
}

// Two identical watches produce bit-identical final states: the whole
// loop — drift, monitoring, trigger, retune — is a function of the
// seed and the simulated timeline.
func TestWatchDeterministic(t *testing.T) {
	run := func() []byte {
		tp := watchTopo()
		c := New(tp, watchSpec(), storm.DefaultSyntheticConfig(tp, 1),
			core.AsBackend(flashEval(tp)), fastBO(), watchOpts(nil))
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(c.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("watch runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// Killing a watch mid-retune and resuming from its snapshot lands in
// exactly the state an uninterrupted run reaches: the embedded session
// snapshot replays, the clock and monitor pick up where they stopped.
func TestWatchSnapshotResumeMidRetune(t *testing.T) {
	tp := watchTopo()
	template := storm.DefaultSyntheticConfig(tp, 1)

	// Reference: one uninterrupted run.
	ref := New(tp, watchSpec(), template, core.AsBackend(flashEval(tp)), fastBO(), watchOpts(nil))
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel three trials into the retune episode (the
	// initial tune completes 12), then snapshot.
	ctx, cancel := context.WithCancel(context.Background())
	completed := 0
	killer := core.ObserverFunc(func(e core.Event) {
		if _, ok := e.(core.TrialCompleted); ok {
			completed++
			if completed == 15 {
				cancel()
			}
		}
	})
	c := New(tp, watchSpec(), template, core.AsBackend(flashEval(tp)), fastBO(), watchOpts(killer))
	if err := c.Run(ctx); err == nil {
		t.Fatal("cancelled watch returned nil error")
	}
	st := c.Snapshot()
	if st.Phase != PhaseRetune {
		t.Fatalf("interrupted mid-retune but snapshot phase = %q", st.Phase)
	}
	if st.Session == nil {
		t.Fatal("mid-retune snapshot carries no session")
	}
	if st.Episode != 1 {
		t.Fatalf("snapshot episode = %d, want 1", st.Episode)
	}

	// The snapshot must survive serialization — that is how the CLI
	// stores it.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	// Resume against fresh evaluator and strategy instances.
	rc, err := Resume(&back, tp, watchSpec(), template,
		core.AsBackend(flashEval(tp)), fastBO(), watchOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed watch diverged from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestWatchCapturesHyperState checks the transfer of the GP
// hyperparameter posterior across the watch's sessions: the initial
// tune's posterior is captured, persisted in snapshots, and restored
// on resume so retune episodes warm-start from it bit-identically.
func TestWatchCapturesHyperState(t *testing.T) {
	tp := watchTopo()
	c := New(tp, watchSpec(), storm.DefaultSyntheticConfig(tp, 1),
		core.AsBackend(flashEval(tp)), fastBO(), watchOpts(nil))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot()
	if st.Hypers == nil || len(st.Hypers.Hypers) == 0 {
		t.Fatal("finished watch snapshot carries no hyperparameter posterior")
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	rc, err := Resume(&back, tp, watchSpec(), storm.DefaultSyntheticConfig(tp, 1),
		core.AsBackend(flashEval(tp)), fastBO(), watchOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	rc.mu.Lock()
	got := rc.hypers
	rc.mu.Unlock()
	if got == nil || len(got.Hypers) != len(st.Hypers.Hypers) {
		t.Fatal("resume dropped the hyperparameter posterior")
	}
	for i := range got.Hypers {
		for j := range got.Hypers[i] {
			if got.Hypers[i][j] != st.Hypers.Hypers[i][j] {
				t.Fatalf("hyper sample %d changed across the JSON round trip", i)
			}
		}
	}
}

// Resume validates its input.
func TestResumeRejectsBadState(t *testing.T) {
	tp := watchTopo()
	bk := core.AsBackend(flashEval(tp))
	if _, err := Resume(nil, tp, watchSpec(), storm.DefaultSyntheticConfig(tp, 1), bk, fastBO(), Options{}); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := Resume(&State{Version: 99, Phase: PhaseHold}, tp, watchSpec(),
		storm.DefaultSyntheticConfig(tp, 1), bk, fastBO(), Options{}); err == nil {
		t.Fatal("future state version accepted")
	}
	if _, err := Resume(&State{Version: StateVersion, Phase: "limbo"}, tp, watchSpec(),
		storm.DefaultSyntheticConfig(tp, 1), bk, fastBO(), Options{}); err == nil {
		t.Fatal("unknown phase accepted")
	}
	if _, err := Resume(&State{Version: StateVersion, Phase: PhaseHold}, tp, watchSpec(),
		storm.DefaultSyntheticConfig(tp, 1), bk, fastBO(), Options{}); err == nil {
		t.Fatal("hold phase without incumbent accepted")
	}
}

// The horizon ends a watch cleanly from the hold phase.
func TestWatchHorizonStopsHold(t *testing.T) {
	tp := watchTopo()
	f := storm.NewFluidSim(tp, watchSpec(), storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	// Stationary workload: no drift, so the monitor never fires and the
	// horizon is the only exit.
	ev := storm.Drifting(f, nil, 300)
	c := New(tp, watchSpec(), storm.DefaultSyntheticConfig(tp, 1),
		core.AsBackend(ev), fastBO(), Options{
			Plan:    Plan{Steps: 6, TrialCost: 60, HoldInterval: 60, Horizon: 1200},
			Monitor: MonitorOptions{Window: 4},
		})
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Episodes() != 0 {
		t.Fatalf("stationary watch retuned %d times", c.Episodes())
	}
	if got := c.Clock().Now(); got < 1200 {
		t.Fatalf("watch stopped at t=%v before the horizon", got)
	}
	if st := c.Snapshot(); st.Phase != PhaseDone {
		t.Fatalf("phase after horizon = %q, want done", st.Phase)
	}
}
