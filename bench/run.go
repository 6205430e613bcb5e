package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stormtune"
)

// qualityShare is the fraction of the reference throughput a session's
// best-so-far must reach to count as "at quality".
const qualityShare = 0.9

// trialObs is what the bench observes about one trial.
type trialObs struct {
	started    int64 // TrialStarted
	decision   int64 // Trial.Decision: the ask that proposed the trial
	completed  int64 // TrialCompleted; 0 until then
	backendEnd int64 // traced: return of the trial's successful attempt
	y          float64
}

// span is one timed call at a layer boundary. parent links a pool
// member's span to the pool call that caused it.
type span struct {
	id, parent int64
	worker     int
	start, end int64
	lost       bool // the attempt lost its measurement
	refused    bool // admission control refused it before evaluation
}

func (s span) dur() int64 { return s.end - s.start }

// serverSpan is one evaluation inside a worker: the injected trial
// duration [start, delayEnd) followed by the simulator [delayEnd, end).
type serverSpan struct {
	worker               int
	start, delayEnd, end int64
}

// evalSample is a completed trial kept for re-evaluation in process.
type evalSample struct {
	cfg      stormtune.Config
	runIndex int
	res      stormtune.Result
}

// session is the bench's view of one tuning session: it is the
// session's Observer, and its outer backend wrapper counts (and, when
// traced, times) every evaluation attempt.
type session struct {
	name     string
	topo     *topology
	budget   int
	seed     int64
	origin   int64 // start of the unit the session belongs to
	newTuner int64 // NewTuner wall time, ns
	clk      clock

	// tn and rec live until the session finishes; finish keeps only what
	// the checks and metrics need, so memory does not grow with the
	// number of sessions a fast machine completes.
	tn         *stormtune.Tuner
	rec        *stormtune.Recorder
	res        stormtune.TuneResult
	archiveKey string
	events     int // events the session's Recorder held

	attempts atomic.Int64
	// sample selects completed trials kept for in-process re-evaluation.
	sample func(id int) bool

	mu        sync.Mutex
	trials    map[int]*trialObs
	order     []int // trial IDs in completion order
	lost      int   // TrialFailed events: attempts that lost their measurement
	permanent int   // trials whose retry budget ran out
	dup       int   // completions reported twice
	samples   []evalSample
	spans     []span // traced: outer backend attempts
}

// OnEvent implements stormtune.Observer. The session serializes its
// observer calls, so the lock only orders them against the backend
// wrapper and the final read-out.
func (s *session) OnEvent(e stormtune.Event) {
	now := s.clk.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e := e.(type) {
	case stormtune.TrialStarted:
		if _, ok := s.trials[e.Trial.ID]; !ok {
			s.trials[e.Trial.ID] = &trialObs{started: now, decision: int64(e.Trial.Decision)}
		}
	case stormtune.TrialCompleted:
		o := s.trials[e.Trial.ID]
		if o == nil || o.completed != 0 {
			s.dup++
			return
		}
		o.completed = now
		if !e.Result.Failed {
			o.y = e.Result.Throughput
		}
		s.order = append(s.order, e.Trial.ID)
		if s.sample != nil && s.sample(e.Trial.ID) {
			s.samples = append(s.samples, evalSample{cfg: e.Trial.Config, runIndex: e.Trial.RunIndex, res: e.Result})
		}
	case stormtune.TrialFailed:
		s.lost++
		if e.Permanent {
			s.permanent++
		}
	}
}

// spanKey carries the outer span ID down the ctx so nested layers can
// name their parent.
type spanKey struct{}

// outerBackend is the backend every session sees: it probes the host
// when a probe is due, counts attempts and, when traced, records the
// attempt span.
type outerBackend struct {
	inner stormtune.Backend
	s     *session
	tr    *tracer
	host  *hostProbe
}

// Run implements stormtune.Backend.
func (b *outerBackend) Run(ctx context.Context, t stormtune.Trial) (stormtune.Result, error) {
	b.host.maybeProbe()
	b.s.attempts.Add(1)
	if b.tr == nil {
		return b.inner.Run(ctx, t)
	}
	id := b.tr.ids.Add(1)
	start := b.s.clk.now()
	res, err := b.inner.Run(context.WithValue(ctx, spanKey{}, id), t)
	end := b.s.clk.now()
	b.s.mu.Lock()
	b.s.spans = append(b.s.spans, span{id: id, start: start, end: end, lost: err != nil})
	if o := b.s.trials[t.ID]; o != nil && err == nil {
		o.backendEnd = end
	}
	b.s.mu.Unlock()
	return res, err
}

// tracer collects the spans of layers below the session's backend.
type tracer struct {
	ids atomic.Int64

	mu           sync.Mutex
	members      []span       // pool member (RemoteBackend) calls
	servers      []serverSpan // worker-side evaluations
	appends      []int64      // archive Append durations, ns
	archiveReads int          // archive Keys and Get calls
}

func (tr *tracer) addMember(s span) {
	tr.mu.Lock()
	tr.members = append(tr.members, s)
	tr.mu.Unlock()
}

func (tr *tracer) addServer(s serverSpan) {
	tr.mu.Lock()
	tr.servers = append(tr.servers, s)
	tr.mu.Unlock()
}

// tracedMember wraps one pool member; the embedded RemoteBackend keeps
// fingerprint routing and health probing visible to the pool.
type tracedMember struct {
	*stormtune.RemoteBackend
	worker int
	tr     *tracer
	clk    clock
}

// Run implements stormtune.Backend.
func (m *tracedMember) Run(ctx context.Context, t stormtune.Trial) (stormtune.Result, error) {
	parent, _ := ctx.Value(spanKey{}).(int64)
	start := m.clk.now()
	res, err := m.RemoteBackend.Run(ctx, t)
	var over *stormtune.RemoteOverloadedError
	refused := errors.As(err, &over)
	m.tr.addMember(span{parent: parent, worker: m.worker, start: start, end: m.clk.now(),
		lost: err != nil && !refused, refused: refused})
	return res, err
}

// usage is a process resource sample.
type usage struct {
	cpu     time.Duration
	alloc   uint64
	gc      uint32
	maxRSSK int64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gc:      ms.NumGC,
		maxRSSK: ru.Maxrss,
	}
}

// run is one execution of one workload.
type run struct {
	p    params
	clk  clock
	host *hostProbe
	tr   *tracer // nil with tracing off

	slots      int       // evaluations the workload may have in flight
	setup      []float64 // set-up durations, s at reference speed
	setupScale hostScale
	sessions   []*session // measured sessions, in creation order
	quality    int        // the first `quality` sessions rest on a fixed unit count
	units      int        // measured units: sessions, or whole fleets
	wall       int64      // measured window, ns
	cpu        int64      // CPU time the window spent outside probes, ns
	alloc      uint64     // bytes the window allocated outside probes
	gcCycles   uint32
	maxRSSK    int64
	scale      hostScale // the window's host speed
	unitHeap   int64     // heap bytes the last unit's tuners and recorders held

	failures []string
	layer    map[string]metric // workload-specific layer measurements
}

func newRun(p params) *run {
	clk := newClock()
	r := &run{p: p, clk: clk, host: &hostProbe{clk: clk}, slots: 1, layer: map[string]metric{}}
	if p.trace {
		r.tr = &tracer{}
	}
	return r
}

func (r *run) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// newSession builds a session and its tuner. edit adjusts the options
// beyond the library defaults the bench always uses.
func (r *run) newSession(name string, tp *topology, steps int, seed int64, b stormtune.Backend,
	edit func(*stormtune.TunerOptions)) (*session, error) {
	s := &session{name: name, topo: tp, budget: steps, seed: seed, clk: r.clk, trials: map[int]*trialObs{}}
	opts := stormtune.TunerOptions{Steps: steps, Seed: seed, Cluster: &tp.spec, Template: &tp.tmpl, Observer: s}
	if edit != nil {
		edit(&opts)
	}
	s.rec = opts.Recorder
	t0 := r.clk.now()
	tn, err := stormtune.NewTuner(tp.t, &outerBackend{inner: b, s: s, tr: r.tr, host: r.host}, opts)
	s.newTuner = r.clk.now() - t0
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", name, err)
	}
	s.tn = tn
	return s, nil
}

// setupProbes are the probes run after each set-up, so that the
// set-up's host speed rests on enough of them.
const setupProbes = 4

// runSetup runs the workload's set-up reps times and keeps every
// duration at reference speed; every rep but the last is torn down
// again.
func (r *run) runSetup(reps int, setup func() error, teardown func()) error {
	before, start := sampleUsage(), r.clk.now()
	var raw []int64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		t0 := r.clk.now()
		if err := setup(); err != nil {
			return err
		}
		raw = append(raw, r.clk.now()-t0)
		r.host.probe(setupProbes)
	}
	r.setupScale, _, _ = r.host.window(start, r.clk.now(), int64(sampleUsage().cpu-before.cpu))
	for _, d := range raw {
		r.setup = append(r.setup, r.setupScale.ms(d)/1000)
	}
	return nil
}

// measure runs units back to back: always the first minUnits, then
// further ones while the next is projected, from the mean duration of
// the finished units, to end within the run's time budget. Quality
// metrics use the sessions of the first minUnits units only, so they do
// not depend on machine speed. A unit's sessions are finished when the
// next unit starts; the last unit's are still held when the window
// closes, so the heap one unit holds is the live heap before finishing
// them minus the live heap after.
func (r *run) measure(minUnits int, unit func(i int, origin int64) error) error {
	runtime.GC()
	before := sampleUsage()
	start := r.clk.now()
	budget := int64(r.p.seconds * 1e9)
	var durs []int64
	var held []*session
	for i := 0; i == 0 || i < minUnits || r.clk.now()-start+meanInt(durs) <= budget; i++ {
		for _, s := range held {
			s.finish()
		}
		n0 := len(r.sessions)
		u0 := r.clk.now()
		if err := unit(i, u0); err != nil {
			return err
		}
		if i+1 == minUnits {
			r.quality = len(r.sessions)
		}
		r.units++
		durs = append(durs, r.clk.now()-u0)
		held = r.sessions[n0:]
	}
	r.wall = r.clk.now() - start
	after := sampleUsage()
	var probes int
	r.scale, r.cpu, probes = r.host.window(start, start+r.wall, int64(after.cpu-before.cpu))
	r.alloc = after.alloc - before.alloc - uint64(probes)*probeAllocBytes
	r.gcCycles = after.gc - before.gc
	r.maxRSSK = after.maxRSSK
	held0 := liveHeap()
	for _, s := range held {
		s.finish()
	}
	r.unitHeap = int64(held0) - int64(liveHeap())
	return nil
}

// liveHeap collects garbage and returns the heap bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func meanInt(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return s / int64(len(xs))
}

// finish collects the result once the session has run and releases
// the tuner.
func (s *session) finish() {
	s.res = s.tn.Result()
	s.archiveKey = s.tn.ArchiveKey()
	if s.rec != nil {
		evs, _ := s.rec.EventsSince(0)
		s.events = len(evs)
	}
	s.tn, s.rec = nil, nil
}

// checkAccounting verifies the trial accounting of every measured session:
// attempts are completions plus lost attempts, no trial completes
// twice, and every session spent exactly its budget.
func (r *run) checkAccounting() {
	for _, s := range r.sessions {
		s.mu.Lock()
		completions, lost, permanent, dup := len(s.order), s.lost, s.permanent, s.dup
		s.mu.Unlock()
		if a := s.attempts.Load(); a != int64(completions-permanent+lost) {
			r.failf("%s: %d attempts, but %d completions (%d permanently failed) and %d lost attempts",
				s.name, a, completions, permanent, lost)
		}
		if dup > 0 {
			r.failf("%s: %d trials reported twice", s.name, dup)
		}
		if completions != s.budget || len(s.res.Records) != s.budget {
			r.failf("%s: %d completions and %d records, want %d", s.name, completions, len(s.res.Records), s.budget)
		}
	}
}

// checkSamples re-evaluates sampled trials in process: a result that
// crossed the wire must equal the simulator's own for the same
// configuration and run index.
func (r *run) checkSamples() int {
	n := 0
	for _, s := range r.sessions {
		for _, smp := range s.samples {
			want := s.topo.sim.Run(smp.cfg, smp.runIndex)
			if want.Throughput != smp.res.Throughput || want.Failed != smp.res.Failed {
				r.failf("%s: remote result %v for run %d differs from in-process %v",
					s.name, smp.res.Throughput, smp.runIndex, want.Throughput)
			}
			n++
		}
	}
	return n
}

// endToEnd computes the user-facing metrics over the measured window,
// every duration at reference host speed.
func (r *run) endToEnd() map[string]metric {
	m := map[string]metric{}
	var intervals, latency []float64
	trials := 0
	for _, s := range r.sessions {
		s.mu.Lock()
		trials += len(s.order)
		for k, id := range s.order {
			o := s.trials[id]
			latency = append(latency, r.scale.ms(o.completed-o.started))
			if k > 0 {
				intervals = append(intervals, r.scale.ms(o.completed-s.trials[s.order[k-1]].completed))
			}
		}
		s.mu.Unlock()
	}
	m["trials_per_s"] = metric{Value: float64(trials) / (r.scale.ms(r.wall) / 1000), Unit: "1/s", N: trials}
	m["host.slowdown"] = metric{Value: r.scale.slow, Unit: "ratio"}
	m["host.busy_share"] = metric{Value: r.scale.busy, Unit: "ratio"}
	m["host.disk_slowdown"] = metric{Value: r.scale.disk, Unit: "ratio"}
	putQuantile(m, "result_interval_p50_ms", "ms", intervals, 0.50)
	putQuantile(m, "result_interval_p95_ms", "ms", intervals, 0.95)
	putQuantile(m, "trial_latency_p50_ms", "ms", latency, 0.50)
	putQuantile(m, "trial_latency_p95_ms", "ms", latency, 0.95)

	var final, anytime, toTrials, toTime []float64
	for _, s := range r.sessions[:r.quality] {
		q := s.quality()
		final = append(final, q.final)
		anytime = append(anytime, q.anytime)
		toTrials = append(toTrials, float64(q.trials))
		toTime = append(toTime, q.secs*r.scale.factor())
	}
	n := len(final)
	m["quality_pct"] = metric{Value: mean(final), Unit: "%", N: n}
	m["anytime_quality_pct"] = metric{Value: mean(anytime), Unit: "%", N: n}
	m["trials_to_quality"] = metric{Value: mean(toTrials), Unit: "trials", N: n}
	m["time_to_quality_s"] = metric{Value: mean(toTime), Unit: "s", N: n}
	m["setup_s"] = metric{Value: median(r.setup), Unit: "s", N: len(r.setup)}
	m["max_rss_mb"] = metric{Value: float64(r.maxRSSK) / 1024, Unit: "MB"}
	m["unit_heap_mb"] = metric{Value: float64(r.unitHeap) / (1 << 20), Unit: "MB"}
	m["cpu_ms_per_trial"] = metric{Value: ms(r.cpu) / r.scale.slow / float64(trials), Unit: "ms", N: trials}
	return m
}

// sessionQuality is how a session fared against its topology's
// reference throughput.
type sessionQuality struct {
	final   float64 // final best, % of the reference
	anytime float64 // best-so-far averaged over the session's trials, % of the reference
	trials  int     // completed trials until best-so-far reached qualityShare of the reference; budget+1 when never
	secs    float64 // wall time from the unit's start until then; the session's whole duration when never
}

func (s *session) quality() sessionQuality {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := sessionQuality{trials: s.budget + 1}
	best, sum := 0.0, 0.0
	last := s.origin
	for k, id := range s.order {
		o := s.trials[id]
		last = o.completed
		if o.y > best {
			best = o.y
		}
		sum += best
		if q.trials > s.budget && best >= qualityShare*s.topo.ref {
			q.trials = k + 1
			q.secs = float64(o.completed-s.origin) / 1e9
		}
	}
	if q.trials > s.budget {
		q.secs = float64(last-s.origin) / 1e9
	}
	q.final = 100 * best / s.topo.ref
	if len(s.order) > 0 {
		q.anytime = 100 * sum / float64(len(s.order)) / s.topo.ref
	}
	return q
}

// perLayer computes the traced layer metrics.
func (r *run) perLayer() map[string]metric {
	m := map[string]metric{}
	wall := r.wall
	var asks, reports, handoffs, evals []float64
	var askSum, busy, sessionWall, unattributed int64
	events := 0
	outerByID := map[int64]span{}
	for _, s := range r.sessions {
		s.mu.Lock()
		ids := make([]int, 0, len(s.trials))
		for id := range s.trials {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var spanSum int64
		for _, sp := range s.spans {
			spanSum += sp.dur()
			outerByID[sp.id] = sp
			if !sp.lost {
				evals = append(evals, r.scale.ms(sp.dur()))
			}
		}
		busy += spanSum
		var attributed int64 = spanSum
		for k, id := range ids {
			o := s.trials[id]
			asks = append(asks, r.scale.ms(o.decision))
			askSum += o.decision
			attributed += o.decision
			if o.completed != 0 && o.backendEnd != 0 {
				reports = append(reports, r.scale.ms(o.completed-o.backendEnd))
				attributed += o.completed - o.backendEnd
			}
			if k > 0 {
				if prev := s.trials[ids[k-1]]; prev.completed != 0 {
					handoffs = append(handoffs, r.scale.ms(o.started-prev.completed-o.decision))
				}
			}
		}
		if len(ids) > 0 {
			first, last := s.trials[ids[0]], s.trials[ids[len(ids)-1]]
			w := last.completed - (first.started - first.decision)
			sessionWall += w
			if w > attributed {
				unattributed += w - attributed
			}
		}
		s.mu.Unlock()
		events += s.events
	}
	putQuantile(m, "bo.ask_ms.p50", "ms", asks, 0.50)
	putQuantile(m, "bo.ask_ms.p95", "ms", asks, 0.95)
	m["bo.ask_share"] = metric{Value: float64(askSum) / float64(wall), Unit: "ratio"}
	putQuantile(m, "session.report_ms.p50", "ms", reports, 0.50)
	putQuantile(m, "session.report_ms.p95", "ms", reports, 0.95)
	putQuantile(m, "session.handoff_ms.p50", "ms", handoffs, 0.50)
	putQuantile(m, "session.handoff_ms.p95", "ms", handoffs, 0.95)
	var newTuner []float64
	for _, s := range r.sessions {
		newTuner = append(newTuner, r.scale.ms(s.newTuner))
	}
	putQuantile(m, "session.new_tuner_ms.p50", "ms", newTuner, 0.50)

	inflight := float64(busy) / float64(wall)
	m["scheduler.inflight_mean"] = metric{Value: inflight, Unit: "count"}
	m["scheduler.slot_busy_ratio"] = metric{Value: inflight / float64(r.slots), Unit: "ratio"}
	m["trace.unattributed_pct"] = metric{Value: 100 * float64(unattributed) / float64(sessionWall), Unit: "%"}
	m["recorder.events"] = metric{Value: float64(events), Unit: "count"}

	trials := 0
	for _, s := range r.sessions {
		trials += len(s.res.Records)
	}
	m["runtime.alloc_kb_per_trial"] = metric{Value: float64(r.alloc) / 1024 / float64(trials), Unit: "KB", N: trials}
	m["runtime.gc_cycles"] = metric{Value: float64(r.gcCycles), Unit: "count"}

	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	if len(r.tr.servers) > 0 {
		r.remoteLayers(m, outerByID)
	} else {
		putQuantile(m, "storm.eval_ms.p50", "ms", evals, 0.50)
		m["storm.evals"] = metric{Value: float64(len(evals)), Unit: "count"}
	}
	m["archive.appends"] = metric{Value: float64(len(r.tr.appends)), Unit: "count"}
	m["archive.query_calls"] = metric{Value: float64(r.tr.archiveReads), Unit: "count"}
	if len(r.tr.appends) > 0 {
		var app []float64
		for _, d := range r.tr.appends {
			app = append(app, r.scale.ms(d))
		}
		putQuantile(m, "archive.append_ms.p50", "ms", app, 0.50)
		putQuantile(m, "archive.append_ms.p99", "ms", app, 0.99)
	}
	for k, v := range r.layer {
		m[k] = v
	}
	// Counts and ratios of layers this workload leaves idle read zero.
	for _, d := range perLayerMetrics {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{Unit: d.Unit}
		}
	}
	return m
}

// remoteLayers splits the pooled remote path into its layers. Each
// pool member holds one trial at a time, so on one worker the client
// spans are disjoint and each server-side evaluation lies inside
// exactly one of them: matching by containment pairs them up.
func (r *run) remoteLayers(m map[string]metric, outer map[int64]span) {
	byWorker := map[int][]span{}
	var rtt []float64
	lost, refused := 0, 0
	nested := map[int64]int64{}
	for _, sp := range r.tr.members {
		byWorker[sp.worker] = append(byWorker[sp.worker], sp)
		nested[sp.parent] += sp.dur()
		switch {
		case sp.refused:
			refused++
		case sp.lost:
			lost++
		default:
			rtt = append(rtt, r.scale.ms(sp.dur()))
		}
	}
	servers := map[int][]serverSpan{}
	var evals, delays []float64
	for _, sv := range r.tr.servers {
		servers[sv.worker] = append(servers[sv.worker], sv)
		evals = append(evals, r.scale.ms(sv.end-sv.delayEnd))
		delays = append(delays, ms(sv.delayEnd-sv.start))
	}
	var transport []float64
	//lint:maporder transport only feeds quantiles, which sort it
	for w, cs := range byWorker {
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		ss := servers[w]
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		j := 0
		for _, sv := range ss {
			for j < len(cs) && cs[j].end < sv.end {
				j++
			}
			if j == len(cs) || cs[j].start > sv.start {
				r.failf("trace: worker %d evaluation at %dns matches no client span", w, sv.start)
				continue
			}
			transport = append(transport, r.scale.ms(cs[j].dur()-(sv.end-sv.start)))
		}
	}
	var wait []float64
	//lint:maporder wait only feeds quantiles, which sort it
	for id, sp := range outer {
		wait = append(wait, r.scale.ms(sp.dur()-nested[id]))
	}
	putQuantile(m, "storm.eval_ms.p50", "ms", evals, 0.50)
	m["storm.evals"] = metric{Value: float64(len(evals)), Unit: "count"}
	m["storm.delay_ms.mean"] = metric{Value: mean(delays), Unit: "ms", N: len(delays)}
	putQuantile(m, "remote.rtt_ms.p50", "ms", rtt, 0.50)
	putQuantile(m, "remote.rtt_ms.p99", "ms", rtt, 0.99)
	putQuantile(m, "remote.transport_ms.p50", "ms", transport, 0.50)
	putQuantile(m, "remote.transport_ms.p99", "ms", transport, 0.99)
	m["remote.requests"] = metric{Value: float64(len(r.tr.members)), Unit: "count"}
	m["remote.lost"] = metric{Value: float64(lost), Unit: "count"}
	m["remote.refused"] = metric{Value: float64(refused), Unit: "count"}
	putQuantile(m, "pool.wait_ms.p50", "ms", wait, 0.50)
	putQuantile(m, "pool.wait_ms.p99", "ms", wait, 0.99)
}

func putQuantile(m map[string]metric, name, unit string, xs []float64, q float64) {
	v, n := quantile(xs, q)
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
