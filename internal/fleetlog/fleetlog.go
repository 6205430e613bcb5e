// Package fleetlog persists a fleet's tuning progress to one
// append-only JSONL file so a killed `stormtune fleet` run can resume
// every member bit-identically.
//
// The log interleaves two record kinds, each tagged with the member it
// belongs to:
//
//   - "event": one recorder event (an opaque JSON payload plus its
//     recorder sequence number) — the audit trail of what happened.
//   - "snapshot": a member's full session state (opaque JSON) covering
//     every event up to Seq. The last durable snapshot per member is
//     what resume restores from.
//
// The file is an internal/journal log. Appends are buffered and a
// snapshot flushes and fsyncs (a snapshot that cannot be trusted is
// worthless). Open truncates a torn tail — a partial last line from a
// crash mid-write — back to the last intact record, and refuses a log
// with a bad record anywhere else (*journal.CorruptError) rather than
// drop the durable snapshots after it. Losing buffered events after
// the final fsync is harmless: resume falls back to the last durable
// snapshot and the session re-proposes the same trials
// deterministically.
//
// The payloads are opaque to this package (json.RawMessage): the public
// layer stores marshaled TunerState snapshots and core.RecordedEvent
// events without this package importing either.
package fleetlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"stormtune/internal/journal"
)

// Record kinds.
const (
	// KindEvent is one recorder event of a member.
	KindEvent = "event"
	// KindSnapshot is a member's full session state.
	KindSnapshot = "snapshot"
)

// Record is one JSONL line of the log.
type Record struct {
	// Kind is KindEvent or KindSnapshot.
	Kind string `json:"kind"`
	// Member names the fleet member the record belongs to.
	Member string `json:"member"`
	// Seq is the recorder sequence number: the event's own for
	// KindEvent, the last sequence the state covers for KindSnapshot.
	Seq int64 `json:"seq,omitempty"`
	// Event is the opaque event payload (KindEvent).
	Event json.RawMessage `json:"event,omitempty"`
	// State is the opaque session-state payload (KindSnapshot).
	State json.RawMessage `json:"state,omitempty"`
}

// MemberState is what the log knows about one member after recovery or
// during a live run.
type MemberState struct {
	// State is the member's last durable snapshot payload; nil when the
	// log holds only events for it.
	State json.RawMessage
	// Seq is the recorder sequence number the snapshot covers.
	Seq int64
	// Events counts the member's event records seen (diagnostics).
	Events int64
}

// Log is an append-only fleet progress log backed by one JSONL file.
// All methods are safe for concurrent use — each member's observer
// appends from its own session's callback goroutine.
type Log struct {
	mu     sync.Mutex
	path   string
	j      *journal.Log
	states map[string]*MemberState
	closed bool
}

// Create starts a fresh log at path, truncating any previous one — the
// non-resume fleet run's entry point.
func Create(path string) (*Log, error) {
	j, err := journal.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: %w", err)
	}
	return &Log{path: path, j: j, states: make(map[string]*MemberState)}, nil
}

// Open recovers an existing log for resumption: it replays every
// record, keeps the last snapshot per member, truncates a torn tail
// back to the last intact line, and reopens the file for appending —
// the resumed run continues the same log.
func Open(path string) (*Log, error) {
	l := &Log{path: path, states: make(map[string]*MemberState)}
	j, err := journal.Open(path, l.fold)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: %w", err)
	}
	l.j = j
	return l, nil
}

// fold applies one intact record to the member map.
func (l *Log) fold(rec Record) error {
	if rec.Member == "" {
		return fmt.Errorf("record names no member")
	}
	ms, ok := l.states[rec.Member]
	if !ok {
		ms = &MemberState{}
		l.states[rec.Member] = ms
	}
	switch rec.Kind {
	case KindEvent:
		ms.Events++
	case KindSnapshot:
		ms.State = rec.State
		ms.Seq = rec.Seq
	}
	return nil
}

// append buffers one record and folds it. Callers hold l.mu.
func (l *Log) append(rec Record) error {
	if l.closed {
		return fmt.Errorf("fleetlog: %s is closed", l.path)
	}
	if rec.Member == "" {
		return fmt.Errorf("fleetlog: %s record names no member", rec.Kind)
	}
	if err := l.j.Append(rec); err != nil {
		return fmt.Errorf("fleetlog: appending to %s: %w", l.path, err)
	}
	return l.fold(rec)
}

// AppendEvent appends one member event (buffered; durable at the next
// snapshot or Close).
func (l *Log) AppendEvent(member string, seq int64, event json.RawMessage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Kind: KindEvent, Member: member, Seq: seq, Event: event})
}

// Snapshot appends a member's session state covering events up to seq,
// then flushes and fsyncs: once Snapshot returns, a crash cannot lose
// the member's progress past this point.
func (l *Log) Snapshot(member string, seq int64, state json.RawMessage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.append(Record{Kind: KindSnapshot, Member: member, Seq: seq, State: state}); err != nil {
		return err
	}
	if err := l.j.Sync(); err != nil {
		return fmt.Errorf("fleetlog: syncing %s: %w", l.path, err)
	}
	return nil
}

// MemberState returns what the log knows about a member. The snapshot
// payload is shared, not copied — treat it as read-only.
func (l *Log) MemberState(member string) (MemberState, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ms, ok := l.states[member]
	if !ok {
		return MemberState{}, false
	}
	return *ms, true
}

// Members lists every member the log has records for, sorted.
func (l *Log) Members() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.states))
	for name := range l.states {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close flushes, fsyncs and closes the file. The log cannot be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := errors.Join(l.j.Sync(), l.j.Close()); err != nil {
		return fmt.Errorf("fleetlog: closing %s: %w", l.path, err)
	}
	return nil
}
