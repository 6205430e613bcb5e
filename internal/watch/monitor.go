package watch

import (
	"stormtune/internal/core"
	"stormtune/internal/storm"
)

// The monitor's thresholds, fixed: the should_online_tune shape (fire
// when performance falls below about 0.8 of the baseline, here slightly
// tighter), with hysteresis so one noisy dip never launches a retune.
const (
	// degradeFactor is the fraction of the baseline below which a
	// sample counts as degraded.
	degradeFactor = 0.85
	// sustain is the number of consecutive degraded (or lost) samples
	// that trigger a retune.
	sustain = 3
	// backpressureSustain is the number of consecutive backpressured
	// samples that trigger the faster backpressure path.
	backpressureSustain = 2
)

// MonitorOptions tune the degradation monitor. Zero values select the
// defaults; all fields are serializable so a snapshot reconstructs the
// monitor exactly.
type MonitorOptions struct {
	// Window is the number of healthy samples the rolling baseline
	// averages over (default 8). The monitor stays silent until the
	// window first fills.
	Window int `json:"window,omitempty"`
	// Cooldown is the minimum simulated seconds between triggers
	// (default 0 — the episode structure already prevents overlapping
	// retunes; set it to damp oscillating workloads further).
	Cooldown float64 `json:"cooldown,omitempty"`
	// Disabled turns the monitor off entirely — the "never retune"
	// policy the drift experiments compare against.
	Disabled bool `json:"disabled,omitempty"`
}

func (o MonitorOptions) window() int {
	if o.Window <= 0 {
		return 8
	}
	return o.Window
}

// Trigger is one monitor firing: the moment a retune episode starts.
type Trigger struct {
	// SimTime is the simulated timestamp of the firing sample.
	SimTime float64 `json:"simTime"`
	// Baseline is the rolling estimate the incumbent was held against;
	// Current is the sample performance that completed the streak.
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Reason is "degradation", "backpressure", or "failure" when the
	// sample that completed the streak was lost.
	Reason string `json:"reason"`
}

// Monitor watches the incumbent's monitoring samples and decides when
// sustained degradation or backpressure warrants a retune. It keeps a
// noise-aware rolling baseline (the mean of the last Window healthy
// samples — degraded and lost samples feed the trigger streak, not the
// baseline, so a real regression cannot drag the reference down with
// it), requires sustain (3) consecutive degraded samples before firing
// (hysteresis), fires at most once per episode (it disarms until
// Reset), and enforces a Cooldown between episodes. All decisions are
// functions of the samples and their simulated timestamps — never the
// wall clock.
//
// Performance is utilization (Throughput/OfferedLoad) when the
// workload reports offered load, raw throughput otherwise: a demand
// trough then looks healthy (delivering everything offered) while a
// capacity shortfall looks degraded, which is exactly the distinction
// a retune trigger needs under drifting load.
//
// Methods are not safe for concurrent use; the controller drives the
// monitor from its single run goroutine.
type Monitor struct {
	opts MonitorOptions

	window        []float64
	degraded      int
	backpressured int
	armed         bool
	fired         bool
	firedAt       float64
	pending       *Trigger
}

// NewMonitor builds an armed monitor.
func NewMonitor(opts MonitorOptions) *Monitor {
	return &Monitor{opts: opts, armed: true}
}

// Perf extracts the performance figure a sample is judged by.
func Perf(res storm.Result) float64 {
	if res.Failed {
		return 0
	}
	if res.OfferedLoad > 0 {
		return res.Throughput / res.OfferedLoad
	}
	return res.Throughput
}

// Baseline returns the rolling estimate; ok is false until the window
// has filled once.
func (m *Monitor) Baseline() (float64, bool) {
	if len(m.window) < m.opts.window() {
		return 0, false
	}
	sum := 0.0
	for _, v := range m.window {
		sum += v
	}
	return sum / float64(len(m.window)), true
}

// push folds a healthy sample into the rolling window.
func (m *Monitor) push(perf float64) {
	m.window = append(m.window, perf)
	if w := m.opts.window(); len(m.window) > w {
		m.window = m.window[len(m.window)-w:]
	}
}

// Observe feeds one monitoring sample taken at simTime. It returns a
// Trigger (and true) when this sample completes a sustained
// degradation, failure or backpressure streak on an armed monitor
// outside the cooldown; the monitor then disarms until Reset.
//
// A failed (lost) sample measures nothing, so it never enters the
// baseline window; it extends the degradation streak instead, and does
// so before the baseline has filled too. sustain consecutive failures
// therefore fire even when no sample has ever succeeded — otherwise a
// watch whose every sample is lost would hold forever.
func (m *Monitor) Observe(simTime float64, res storm.Result) (Trigger, bool) {
	if m.opts.Disabled {
		return Trigger{}, false
	}
	perf := Perf(res)
	base, ready := m.Baseline()
	if res.Failed || ready && perf < base*degradeFactor {
		m.degraded++
	} else {
		m.degraded = 0
		m.push(perf)
	}
	if res.Backpressured {
		m.backpressured++
	} else {
		m.backpressured = 0
	}
	if !m.armed {
		return Trigger{}, false
	}
	if m.fired && m.opts.Cooldown > 0 && simTime < m.firedAt+m.opts.Cooldown {
		return Trigger{}, false
	}
	var reason string
	switch {
	case !ready && !res.Failed:
		// Still establishing the reference; backpressure is tracked so
		// a watch that starts already drowning fires the moment the
		// baseline exists.
		return Trigger{}, false
	case ready && m.backpressured >= backpressureSustain:
		reason = "backpressure"
	case m.degraded >= sustain && res.Failed:
		reason = "failure"
	case m.degraded >= sustain:
		reason = "degradation"
	default:
		return Trigger{}, false
	}
	m.armed = false
	m.fired = true
	m.firedAt = simTime
	m.degraded = 0
	m.backpressured = 0
	return Trigger{SimTime: simTime, Baseline: base, Current: perf, Reason: reason}, true
}

// Reset re-arms the monitor around a new incumbent: the rolling window
// and streaks clear so the baseline re-establishes from the
// post-retune samples. The cooldown clock is not reset — it runs from
// the last firing.
func (m *Monitor) Reset() {
	m.window = m.window[:0]
	m.degraded = 0
	m.backpressured = 0
	m.armed = true
	m.pending = nil
}

// OnEvent implements core.Observer: the monitor consumes HoldSampled
// events from the session event stream and holds any resulting
// trigger for TakeTrigger. Other event types are ignored, so the
// monitor composes into a MultiObserver chain alongside a Recorder.
func (m *Monitor) OnEvent(e core.Event) {
	hs, ok := e.(core.HoldSampled)
	if !ok {
		return
	}
	if tr, fired := m.Observe(hs.SimTime, hs.Result); fired {
		m.pending = &tr
	}
}

// TakeTrigger collects (and clears) a trigger produced via OnEvent.
func (m *Monitor) TakeTrigger() (Trigger, bool) {
	if m.pending == nil {
		return Trigger{}, false
	}
	tr := *m.pending
	m.pending = nil
	return tr, true
}

// MonitorState is the monitor's serializable state.
type MonitorState struct {
	Window        []float64 `json:"window,omitempty"`
	Degraded      int       `json:"degraded,omitempty"`
	Backpressured int       `json:"backpressured,omitempty"`
	Armed         bool      `json:"armed"`
	Fired         bool      `json:"fired,omitempty"`
	FiredAt       float64   `json:"firedAt,omitempty"`
}

// State captures the monitor for a snapshot.
func (m *Monitor) State() MonitorState {
	return MonitorState{
		Window:        append([]float64(nil), m.window...),
		Degraded:      m.degraded,
		Backpressured: m.backpressured,
		Armed:         m.armed,
		Fired:         m.fired,
		FiredAt:       m.firedAt,
	}
}

// Restore rebuilds the monitor from a snapshot.
func (m *Monitor) Restore(st MonitorState) {
	m.window = append(m.window[:0], st.Window...)
	m.degraded = st.Degraded
	m.backpressured = st.Backpressured
	m.armed = st.Armed
	m.fired = st.Fired
	m.firedAt = st.FiredAt
	m.pending = nil
}
