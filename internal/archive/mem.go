package archive

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Mem is the in-memory Store: the test double, and the natural choice
// for a single-process fleet that shares evidence across members
// without persisting it. Disk keeps its replayed state in one.
type Mem struct {
	mu   sync.Mutex
	recs map[string]*SessionRecord
}

// NewMem returns an empty in-memory archive.
func NewMem() *Mem {
	return &Mem{recs: make(map[string]*SessionRecord)}
}

// runPersist runs a mutator's persist hook, if any. The unexported
// mutators take one; it runs under mu once the call is known to change
// the archive and before the change takes effect, and its error aborts
// the call. Disk passes its record write, so memory never runs ahead of
// the segment log.
func runPersist(persist func() error) error {
	if persist == nil {
		return nil
	}
	return persist()
}

// Begin implements Store.
func (m *Mem) Begin(meta SessionMeta) error { return m.begin(meta, nil) }

func (m *Mem) begin(meta SessionMeta, persist func() error) error {
	if err := validateMeta(meta); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec, ok := m.recs[meta.Key]; ok {
		if rec.Meta.Fingerprint != meta.Fingerprint {
			return fmt.Errorf("archive: key %q already holds fingerprint %016x, not %016x",
				meta.Key, rec.Meta.Fingerprint, meta.Fingerprint)
		}
		return nil // re-attach
	}
	if err := runPersist(persist); err != nil {
		return err
	}
	m.recs[meta.Key] = &SessionRecord{Meta: meta}
	return nil
}

// Append implements Store.
func (m *Mem) Append(key string, trials ...TrialRecord) error { return m.append(key, trials, nil) }

func (m *Mem) append(key string, trials []TrialRecord, persist func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[key]
	if !ok {
		return fmt.Errorf("archive: append to unknown session %q", key)
	}
	if err := runPersist(persist); err != nil {
		return err
	}
	rec.Trials = append(rec.Trials, trials...)
	return nil
}

// Seal implements Store.
func (m *Mem) Seal(key string, state json.RawMessage) error { return m.seal(key, state, nil) }

func (m *Mem) seal(key string, state json.RawMessage, persist func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[key]
	if !ok {
		return fmt.Errorf("archive: seal of unknown session %q", key)
	}
	if err := runPersist(persist); err != nil {
		return err
	}
	rec.Sealed = true
	if state != nil {
		rec.State = append(json.RawMessage(nil), state...)
	}
	return nil
}

// Get implements Store.
func (m *Mem) Get(key string) (SessionRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[key]
	if !ok {
		return SessionRecord{}, false
	}
	return copyRecord(rec), true
}

// Keys implements Store.
func (m *Mem) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.keysLocked()
}

// keysLocked lists keys sorted; callers hold mu.
func (m *Mem) keysLocked() []string {
	keys := make([]string, 0, len(m.recs))
	for k := range m.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LastStep implements Store.
func (m *Mem) LastStep(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[key]
	if !ok {
		return 0
	}
	last := 0
	for _, tr := range rec.Trials {
		if tr.Step > last {
			last = tr.Step
		}
	}
	return last
}

// Delete implements Store.
func (m *Mem) Delete(key string) error { return m.delete(key, nil) }

func (m *Mem) delete(key string, persist func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.recs[key]; !ok {
		return nil
	}
	if err := runPersist(persist); err != nil {
		return err
	}
	delete(m.recs, key)
	return nil
}

// Close implements Store.
func (m *Mem) Close() error { return nil }

func copyRecord(rec *SessionRecord) SessionRecord {
	out := *rec
	out.Trials = append([]TrialRecord(nil), rec.Trials...)
	for i := range out.Trials {
		out.Trials[i].Config = out.Trials[i].Config.Clone()
	}
	if rec.State != nil {
		out.State = append(json.RawMessage(nil), rec.State...)
	}
	return out
}
