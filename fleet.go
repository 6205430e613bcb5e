package stormtune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"stormtune/internal/core"
	"stormtune/internal/dash"
	"stormtune/internal/fleetlog"
)

// Fleet tuning: many independent sessions — different topologies,
// budgets, strategies and seeds — run concurrently over one shared pool
// of evaluation slots. A fleet-level scheduler grants each freed slot
// to one session by weighted fair share (stride scheduling: equal
// weights share evenly, a weight-3 session gets three grants for every
// one a weight-1 session gets, and no session starves), and the total
// number of in-flight trials never exceeds the fleet's slot count — a
// shared worker pool is saturated, never oversubscribed. The CLI's
// `stormtune fleet -manifest fleet.json -dash :8090` drives one from a
// manifest and serves the aggregated dashboard.
type (
	// Fleet drives several sessions over shared slots; build one with
	// NewFleet and drive it with Run. Status aggregates cross-session
	// state for the fleet dashboard.
	Fleet = core.Fleet
	// FleetStatus is the cross-session state at one instant: shared
	// slot occupancy, per-session progress and the fleet-wide best.
	FleetStatus = core.FleetStatus
	// FleetSessionStatus is one session's entry in a FleetStatus.
	FleetSessionStatus = core.FleetSessionStatus
	// FleetDashboard is the aggregated HTTP surface over a Fleet:
	// GET /, /api/fleet, /sessions/{name}/ (full per-session dashboards
	// with SSE replay) and /healthz.
	FleetDashboard = dash.FleetHandler
	// FleetDashboardOptions configure a FleetDashboard (title, static
	// info, per-session info, shared-pool stats source).
	FleetDashboardOptions = dash.FleetOptions
	// FleetState is the /api/fleet document a FleetDashboard serves.
	FleetState = dash.FleetState
)

// FleetMember is one session of a fleet: a unique name (the result key
// and dashboard URL segment), the Tuner to drive, and its scheduling
// weight. The tuner must have a Backend and must not be driven through
// its own Run/RunBatch/RunAsync while the fleet runs; its
// TunerOptions.Recorder (when set) feeds the aggregated dashboard, and
// its cluster's concurrent-trial capacity caps the session's own
// in-flight trials within the fleet.
type FleetMember struct {
	// Name identifies the session; names must be unique and non-empty.
	Name string
	// Tuner is the session to drive.
	Tuner *Tuner
	// Weight scales the session's share of slot grants (≤ 0 means 1).
	Weight float64
	// MaxInFlight overrides the member's own concurrent-trial cap; 0
	// keeps the tuner's cluster-derived bound. Set it to 1 for strictly
	// sequential members — the setting that makes a member's record
	// sequence deterministic regardless of fleet scheduling, which the
	// crash-safe resume path (FleetOptions.Log) relies on for
	// bit-identical restarts.
	MaxInFlight int
}

// FleetOptions configure a fleet.
type FleetOptions struct {
	// Slots is the total number of trials in flight across all sessions
	// at any instant — size it to the shared worker pool's capacity
	// (e.g. BackendPool.Size()). Values below 1 mean 1.
	Slots int
	// ShareIncumbents propagates each member's new-best configuration
	// to every sibling at report boundaries, re-ranking their
	// warm-start pools mid-run. Give every member's Tuner the same
	// TunerOptions.Archive and the fleet's evidence also accumulates in
	// one shared archive for future warm starts.
	ShareIncumbents bool
	// Log, when set, persists every member's recorder events and
	// session snapshots to the append-only on-disk fleet log as the run
	// progresses, making the fleet crash-safe: a killed run resumes
	// from the log (`stormtune fleet -resume`, or OpenFleetLog +
	// ResumeTuner) with every member restored bit-identically,
	// mid-retry trials included. Members without a Recorder get one
	// wired in automatically.
	Log *FleetLog
}

// NewFleet builds a fleet over the given members. Typically every
// member's Tuner shares one Backend — a BackendPool over `stormtune
// serve` worker processes — and Slots equals the pool size, so the
// fleet keeps every worker busy without ever queueing trials behind a
// saturated pool.
func NewFleet(opts FleetOptions, members ...FleetMember) (*Fleet, error) {
	cms := make([]core.FleetMember, len(members))
	for i, m := range members {
		if m.Tuner == nil {
			return nil, fmt.Errorf("stormtune: fleet member %d (%q) has no tuner", i, m.Name)
		}
		maxInFlight := m.Tuner.bound
		if m.MaxInFlight > 0 {
			maxInFlight = m.MaxInFlight
		}
		rec := m.Tuner.opts.Recorder
		if opts.Log != nil {
			// The log tails the member's Recorder; members driven without
			// one get one wired in now, before the fleet starts emitting.
			if rec == nil {
				rec = core.NewRecorder()
				m.Tuner.sess.AppendObserver(rec)
			}
			if err := opts.Log.attach(m.Name, m.Tuner, rec); err != nil {
				return nil, fmt.Errorf("stormtune: fleet log: attaching %q: %w", m.Name, err)
			}
		}
		cms[i] = core.FleetMember{
			Name:        m.Name,
			Session:     m.Tuner.sess,
			Weight:      m.Weight,
			MaxInFlight: maxInFlight,
			Recorder:    rec,
		}
	}
	return core.NewFleet(core.FleetOptions{Slots: opts.Slots, ShareIncumbents: opts.ShareIncumbents}, cms...)
}

// SealFleetArchives seals every member's archive record after the
// fleet finished — core.Fleet drives raw sessions and cannot seal for
// the tuners. Call it once fleet.Run returns without error; members
// without an archive are skipped.
func SealFleetArchives(members ...FleetMember) error {
	for _, m := range members {
		if m.Tuner == nil {
			continue
		}
		if err := m.Tuner.SealArchive(); err != nil {
			return fmt.Errorf("stormtune: sealing %q: %w", m.Name, err)
		}
	}
	return nil
}

// FleetLog is the append-only on-disk progress log that makes a fleet
// crash-safe: while the fleet runs, every member's recorder events and
// session snapshots stream into one JSONL file (events buffered,
// snapshots fsynced), and after a crash OpenFleetLog recovers the last
// durable snapshot per member — ResumeTuner restores each one
// bit-identically, mid-retry trials included. Create one with
// CreateFleetLog for a fresh run or OpenFleetLog to resume, pass it via
// FleetOptions.Log, and Close it after the fleet returns.
type FleetLog struct {
	l *fleetlog.Log

	errMu    sync.Mutex
	firstErr error
}

// CreateFleetLog starts a fresh fleet log at path, truncating any
// previous one.
func CreateFleetLog(path string) (*FleetLog, error) {
	l, err := fleetlog.Create(path)
	if err != nil {
		return nil, fmt.Errorf("stormtune: %w", err)
	}
	return &FleetLog{l: l}, nil
}

// OpenFleetLog recovers an existing fleet log for resumption: torn
// tails from the crash are truncated, the last durable snapshot per
// member is loaded (MemberState), and the resumed fleet appends to the
// same file. A bad record anywhere else is a *CorruptRecordError and
// leaves the file untouched.
func OpenFleetLog(path string) (*FleetLog, error) {
	l, err := fleetlog.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stormtune: %w", err)
	}
	return &FleetLog{l: l}, nil
}

// Members lists every member the log holds records for, sorted by name.
func (fl *FleetLog) Members() []string { return fl.l.Members() }

// MemberState returns the member's last durable snapshot, ready for
// ResumeTuner. A nil state with a nil error means the log has no
// snapshot for that member (tune it fresh).
func (fl *FleetLog) MemberState(name string) (*TunerState, error) {
	ms, ok := fl.l.MemberState(name)
	if !ok || ms.State == nil {
		return nil, nil
	}
	return loadState[TunerState](bytes.NewReader(ms.State), fmt.Sprintf("fleet log %q snapshot", name))
}

// Err returns the first write error the log hit while observing the
// fleet (observer callbacks cannot return errors); nil when every
// append and snapshot succeeded. Check it after the fleet finishes —
// a log with a write error must not be trusted for resume.
func (fl *FleetLog) Err() error {
	fl.errMu.Lock()
	defer fl.errMu.Unlock()
	return fl.firstErr
}

// Close flushes, fsyncs and closes the log file.
func (fl *FleetLog) Close() error { return fl.l.Close() }

func (fl *FleetLog) noteErr(err error) {
	if err == nil {
		return
	}
	fl.errMu.Lock()
	defer fl.errMu.Unlock()
	if fl.firstErr == nil {
		fl.firstErr = err
	}
}

// attach wires a member into the log: an observer appended after the
// member's Recorder tails its event stream and snapshots the session
// at every completion, failure and pass end. An immediate first
// snapshot records the member even if the fleet dies before its first
// completion.
func (fl *FleetLog) attach(name string, t *Tuner, rec *core.Recorder) error {
	// Start the event cursor past what the recorder already holds: a
	// resumed member's primed history is already in the log from the
	// previous run, and re-appending it would double every event.
	evs, _ := rec.EventsSince(0)
	var last int64
	if n := len(evs); n > 0 {
		last = evs[n-1].Seq
	}
	obs := &fleetLogObserver{log: fl, name: name, t: t, rec: rec, lastSeq: last}
	obs.snapshot()
	if err := fl.Err(); err != nil {
		return err
	}
	t.sess.AppendObserver(obs)
	return nil
}

// fleetLogObserver tails one member's recorder into the fleet log. It
// runs from the member session's serialized observer chain, ordered
// after the Recorder — so every event it drains is already recorded,
// and a Snapshot taken here reflects the event that triggered it
// (including the attempt count of a mid-retry failure).
type fleetLogObserver struct {
	log     *FleetLog
	name    string
	t       *Tuner
	rec     *core.Recorder
	lastSeq int64
}

// OnEvent implements Observer.
func (o *fleetLogObserver) OnEvent(e Event) {
	evs, _ := o.rec.EventsSince(o.lastSeq)
	for _, ev := range evs {
		raw, err := json.Marshal(ev)
		if err != nil {
			o.log.noteErr(err)
			return
		}
		if err := o.log.l.AppendEvent(o.name, ev.Seq, raw); err != nil {
			o.log.noteErr(err)
			return
		}
		o.lastSeq = ev.Seq
	}
	switch e.(type) {
	case TrialCompleted, TrialFailed, PassCompleted:
		o.snapshot()
	}
}

// snapshot appends a durable session snapshot covering every event
// drained so far.
func (o *fleetLogObserver) snapshot() {
	raw, err := json.Marshal(o.t.Snapshot())
	if err != nil {
		o.log.noteErr(err)
		return
	}
	o.log.noteErr(o.log.l.Snapshot(o.name, o.lastSeq, raw))
}

// NewFleetDashboard builds the aggregated HTTP dashboard over a fleet:
// GET /api/fleet for the cross-session state, an embedded index page at
// /, and a full per-session dashboard (page, /api/state, SSE
// /api/events with replay-from-ID) under /sessions/{name}/ for every
// member whose Tuner was given a Recorder. Serve it with ServeDashboard
// or mount it on a mux of your own.
func NewFleetDashboard(f *Fleet, opts FleetDashboardOptions) *FleetDashboard {
	return dash.NewFleet(f, opts)
}
