package watch

import (
	"encoding/json"
	"testing"

	"stormtune/internal/core"
	"stormtune/internal/storm"
)

// healthy and degraded build monitoring samples with a raw throughput
// perf (no offered load reported).
func healthy(v float64) storm.Result  { return storm.Result{Throughput: v} }
func degraded(v float64) storm.Result { return storm.Result{Throughput: v} }

// fill feeds n healthy samples so the baseline window establishes,
// advancing the simulated time by 60 per sample from start.
func fill(m *Monitor, start float64, n int, v float64) float64 {
	t := start
	for i := 0; i < n; i++ {
		if _, fired := m.Observe(t, healthy(v)); fired {
			panic("monitor fired while establishing the baseline")
		}
		t += 60
	}
	return t
}

func TestPerfPrefersUtilization(t *testing.T) {
	if p := Perf(storm.Result{Throughput: 300, OfferedLoad: 600}); p != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", p)
	}
	if p := Perf(storm.Result{Throughput: 300}); p != 300 {
		t.Fatalf("raw throughput = %v, want 300", p)
	}
	if p := Perf(storm.FailedResult(storm.FailurePlacement, "x")); p != 0 {
		t.Fatalf("failed sample perf = %v, want 0", p)
	}
}

// A dip shorter than sustain (3 samples) must never trigger: the
// monitor degrades then recovers and stays silent.
func TestMonitorIgnoresTransientDip(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 4})
	now := fill(m, 0, 4, 1.0)
	for _, v := range []float64{0.5, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0} {
		if _, fired := m.Observe(now, degraded(v)); fired {
			t.Fatalf("transient dip triggered a retune at t=%v", now)
		}
		now += 60
	}
	if base, ok := m.Baseline(); !ok || base != 1.0 {
		t.Fatalf("degraded samples leaked into the baseline: %v %v", base, ok)
	}
}

// Sustained degradation triggers exactly once per episode: the monitor
// disarms after firing and only a Reset re-arms it.
func TestMonitorFiresOncePerEpisode(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 4})
	now := fill(m, 0, 4, 1.0)
	fires := 0
	var tr Trigger
	for i := 0; i < 10; i++ {
		if got, fired := m.Observe(now, degraded(0.5)); fired {
			fires++
			tr = got
		}
		now += 60
	}
	if fires != 1 {
		t.Fatalf("sustained degradation fired %d times, want exactly 1", fires)
	}
	if tr.Reason != "degradation" || tr.Baseline != 1.0 || tr.Current != 0.5 {
		t.Fatalf("trigger = %+v", tr)
	}
	// The third degraded sample completes the streak.
	if tr.SimTime != 4*60+2*60 {
		t.Fatalf("fired at t=%v, want %v", tr.SimTime, 4*60+2*60)
	}

	// A new episode: Reset re-arms, the baseline re-establishes, and a
	// second sustained degradation fires again.
	m.Reset()
	now = fill(m, now, 4, 0.9)
	fires = 0
	for i := 0; i < 5; i++ {
		if _, fired := m.Observe(now, degraded(0.4)); fired {
			fires++
		}
		now += 60
	}
	if fires != 1 {
		t.Fatalf("second episode fired %d times, want 1", fires)
	}
}

// Backpressure has its own, faster sustain path: two backpressured
// samples fire, although at 0.9 of the baseline neither is degraded.
func TestMonitorBackpressureTrigger(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 4})
	now := fill(m, 0, 4, 1.0)
	bp := storm.Result{Throughput: 0.9, OfferedLoad: 1.0, Backpressured: true}
	if _, fired := m.Observe(now, bp); fired {
		t.Fatal("single backpressured sample must not trigger")
	}
	tr, fired := m.Observe(now+60, bp)
	if !fired || tr.Reason != "backpressure" {
		t.Fatalf("sustained backpressure did not trigger: fired=%v tr=%+v", fired, tr)
	}
}

// Lost samples never enter the baseline window, and sustain (3)
// consecutive losses fire with reason "failure" — before the window
// has filled as well as after; a healthy sample breaks the streak.
func TestMonitorFailedSamples(t *testing.T) {
	lost := storm.FailedResult(storm.FailureEvaluation, "lost")
	m := NewMonitor(MonitorOptions{Window: 4})
	now := 0.0
	for _, res := range []storm.Result{lost, lost, healthy(1), lost, lost} {
		if _, fired := m.Observe(now, res); fired {
			t.Fatalf("fired at t=%v before three consecutive losses", now)
		}
		now += 60
	}
	if st := m.State(); len(st.Window) != 1 || st.Window[0] != 1 {
		t.Fatalf("window %v after one healthy sample among losses, want [1]", st.Window)
	}
	tr, fired := m.Observe(now, lost)
	if !fired || tr.Reason != "failure" || tr.Current != 0 {
		t.Fatalf("three losses before the baseline filled: fired=%v tr=%+v", fired, tr)
	}

	m = NewMonitor(MonitorOptions{Window: 4})
	now = fill(m, 0, 4, 1.0)
	for i := 0; i < 2; i++ {
		if _, fired := m.Observe(now, lost); fired {
			t.Fatal("fired before three consecutive losses")
		}
		now += 60
	}
	if base, ok := m.Baseline(); !ok || base != 1.0 {
		t.Fatalf("lost samples leaked into the baseline: %v %v", base, ok)
	}
	if tr, fired := m.Observe(now, lost); !fired || tr.Reason != "failure" || tr.Baseline != 1.0 {
		t.Fatalf("three losses after the baseline filled: fired=%v tr=%+v", fired, tr)
	}
}

func TestMonitorCooldown(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 2, Cooldown: 500})
	now := fill(m, 0, 2, 1.0)
	m.Observe(now, degraded(0.1))
	m.Observe(now+60, degraded(0.1))
	tr, fired := m.Observe(now+120, degraded(0.1))
	if !fired {
		t.Fatal("first episode did not trigger")
	}
	// Re-armed for the next episode, but still inside the cooldown.
	m.Reset()
	now = fill(m, tr.SimTime+60, 2, 1.0)
	for ; now < tr.SimTime+500; now += 60 {
		if _, f := m.Observe(now, degraded(0.1)); f {
			t.Fatalf("triggered at t=%v inside the cooldown (fired at %v)", now, tr.SimTime)
		}
	}
	if _, f := m.Observe(now, degraded(0.1)); !f {
		t.Fatalf("no trigger at t=%v after the cooldown expired", now)
	}
}

func TestMonitorDisabled(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 2, Disabled: true})
	for i := 0; i < 20; i++ {
		if _, fired := m.Observe(float64(i)*60, degraded(0)); fired {
			t.Fatal("disabled monitor fired")
		}
	}
}

// The monitor consumes HoldSampled events off the observer chain and
// parks the trigger for the controller.
func TestMonitorOnEvent(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 2})
	now := fill(m, 0, 2, 1.0)
	for i := 0; i < 2; i++ {
		m.OnEvent(core.HoldSampled{SimTime: now + float64(i)*60, Result: degraded(0.1)})
		if _, ok := m.TakeTrigger(); ok {
			t.Fatal("trigger before the streak sustained")
		}
	}
	m.OnEvent(core.TrialStarted{}) // foreign events are ignored
	m.OnEvent(core.HoldSampled{SimTime: now + 120, Result: degraded(0.1)})
	tr, ok := m.TakeTrigger()
	if !ok || tr.Reason != "degradation" {
		t.Fatalf("TakeTrigger = %+v, %v", tr, ok)
	}
	if _, ok := m.TakeTrigger(); ok {
		t.Fatal("TakeTrigger did not clear the pending trigger")
	}
}

// State/Restore round-trips the monitor bit-identically: the restored
// monitor makes the same decision on the same next sample.
func TestMonitorStateRoundTrip(t *testing.T) {
	m := NewMonitor(MonitorOptions{Window: 3})
	now := fill(m, 0, 3, 1.0)
	m.Observe(now, degraded(0.2)) // two degraded samples: streak at 2
	now += 60
	m.Observe(now, degraded(0.2))

	st := m.State()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back MonitorState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	m2 := NewMonitor(MonitorOptions{Window: 3})
	m2.Restore(back)

	tr1, f1 := m.Observe(now+60, degraded(0.2))
	tr2, f2 := m2.Observe(now+60, degraded(0.2))
	if f1 != f2 || tr1 != tr2 {
		t.Fatalf("restored monitor diverged: %v %+v vs %v %+v", f1, tr1, f2, tr2)
	}
	if !f1 {
		t.Fatal("both monitors should have completed the streak")
	}
}
