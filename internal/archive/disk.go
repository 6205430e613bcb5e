package archive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"stormtune/internal/journal"
)

// formatVersion is the on-disk format version, stamped on every
// segment record. Readers reject newer versions rather than misparse
// them.
const formatVersion = 1

// record is one line of a segment file: a versioned envelope around
// one of the append-only operations.
type record struct {
	V int `json:"v"`
	// Op is "begin" | "trial" | "seal" | "delete", or "reset", which
	// opens a GC-compacted segment and discards everything replayed
	// before it.
	Op string `json:"op"`
	// Key identifies the session for trial/seal/delete ops.
	Key   string          `json:"key,omitempty"`
	Meta  *SessionMeta    `json:"meta,omitempty"`  // begin
	Trial *TrialRecord    `json:"trial,omitempty"` // trial
	State json.RawMessage `json:"state,omitempty"` // seal
}

// Disk is the persistent Store: a directory of append-only JSON-lines
// segment files, each an internal/journal log. Every Begin, Append and
// Delete call flushes its records to the OS (a machine crash loses at
// most the unsealed tail, which Open truncates away); Seal fsyncs the
// segment, so completed evidence is durable. Files other than segments
// — the index.json older versions kept, a temp file a crash left — are
// ignored.
type Disk struct {
	dir string

	mem    Mem          // the replayed state; mem.mu also guards the fields below
	seg    *journal.Log // current segment, created lazily on first write
	segNum int          // number the next segment will use
	closed bool
}

// Open opens (creating if needed) a disk archive rooted at dir. All
// existing segments are replayed in name order; a torn trailing record
// — the signature of a crash mid-append — is truncated so the segment
// is clean for future readers. Corruption anywhere else is a
// *journal.CorruptError.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	d := &Disk{dir: dir, mem: Mem{recs: make(map[string]*SessionRecord)}, segNum: 1}
	segs, err := d.segmentFiles()
	if err != nil {
		return nil, err
	}
	for _, path := range segs {
		l, err := journal.Open(path, d.apply)
		if err == nil {
			err = l.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
		var n int
		fmt.Sscanf(filepath.Base(path), "seg-%d.jsonl", &n)
		if n >= d.segNum {
			d.segNum = n + 1
		}
	}
	return d, nil
}

// Dir returns the archive's root directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) segmentFiles() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".jsonl") {
			segs = append(segs, filepath.Join(d.dir, name))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// apply folds one replayed record into the in-memory state. Replay is
// forgiving where live calls are strict: evidence for sessions whose
// begin record was lost is dropped, not fatal.
func (d *Disk) apply(rec record) error {
	if rec.V > formatVersion {
		return fmt.Errorf("record version %d (supported %d)", rec.V, formatVersion)
	}
	switch rec.Op {
	case "begin":
		if rec.Meta == nil {
			return fmt.Errorf("begin record without meta")
		}
		if _, ok := d.mem.recs[rec.Meta.Key]; !ok {
			d.mem.recs[rec.Meta.Key] = &SessionRecord{Meta: *rec.Meta}
		}
	case "trial":
		if r, ok := d.mem.recs[rec.Key]; ok && rec.Trial != nil {
			r.Trials = append(r.Trials, *rec.Trial)
		}
	case "seal":
		if r, ok := d.mem.recs[rec.Key]; ok {
			r.Sealed = true
			if rec.State != nil {
				r.State = append(json.RawMessage(nil), rec.State...)
			}
		}
	case "delete":
		delete(d.mem.recs, rec.Key)
	case "reset":
		d.mem.recs = make(map[string]*SessionRecord)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// segPath names segment n.
func (d *Disk) segPath(n int) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%06d.jsonl", n))
}

// writeLocked appends records to the current segment, creating a fresh
// segment on first write, and flushes them to the OS. Callers hold
// mem.mu.
func (d *Disk) writeLocked(recs ...record) error {
	if d.closed {
		return fmt.Errorf("archive: store is closed")
	}
	if d.seg == nil {
		l, err := journal.Create(d.segPath(d.segNum))
		if err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		d.seg = l
		d.segNum++
	}
	for _, rec := range recs {
		rec.V = formatVersion
		if err := d.seg.Append(rec); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	if err := d.seg.Flush(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// Begin implements Store.
func (d *Disk) Begin(meta SessionMeta) error {
	return d.mem.begin(meta, func() error {
		return d.writeLocked(record{Op: "begin", Meta: &meta})
	})
}

// Append implements Store.
func (d *Disk) Append(key string, trials ...TrialRecord) error {
	return d.mem.append(key, trials, func() error {
		if len(trials) == 0 {
			return nil
		}
		recs := make([]record, len(trials))
		for i := range trials {
			recs[i] = record{Op: "trial", Key: key, Trial: &trials[i]}
		}
		return d.writeLocked(recs...)
	})
}

// Seal implements Store. The seal record is fsynced, making the whole
// session durable.
func (d *Disk) Seal(key string, state json.RawMessage) error {
	return d.mem.seal(key, state, func() error {
		if err := d.writeLocked(record{Op: "seal", Key: key, State: state}); err != nil {
			return err
		}
		if err := d.seg.Sync(); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		return nil
	})
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	return d.mem.delete(key, func() error {
		return d.writeLocked(record{Op: "delete", Key: key})
	})
}

// Get implements Store.
func (d *Disk) Get(key string) (SessionRecord, bool) { return d.mem.Get(key) }

// Keys implements Store.
func (d *Disk) Keys() []string { return d.mem.Keys() }

// LastStep implements Store.
func (d *Disk) LastStep(key string) int { return d.mem.LastStep(key) }

// GC drops unsealed (abandoned or in-progress elsewhere — don't gc a
// live archive) records and compacts every segment into one, so
// deletes and torn tails stop costing replay time. It returns the
// number of records dropped.
//
// Compaction is crash-atomic: the surviving state is written with
// journal.WriteFile as the next segment, opened by a "reset" record,
// before the old segments are removed. Until that rename the archive
// replays to its pre-GC state; from it on, whichever old segments are
// still present replay first and the reset discards them.
func (d *Disk) GC() (dropped int, err error) {
	d.mem.mu.Lock()
	defer d.mem.mu.Unlock()
	if d.closed {
		return 0, fmt.Errorf("archive: store is closed")
	}
	old, err := d.segmentFiles()
	if err != nil {
		return 0, err
	}
	if d.seg != nil {
		err := d.seg.Close()
		d.seg = nil
		if err != nil {
			return 0, fmt.Errorf("archive: %w", err)
		}
	}
	keys := d.mem.keysLocked()
	recs := []record{{Op: "reset"}}
	for _, k := range keys {
		if rec := d.mem.recs[k]; rec.Sealed {
			recs = append(recs, record{Op: "begin", Meta: &rec.Meta})
			for i := range rec.Trials {
				recs = append(recs, record{Op: "trial", Key: k, Trial: &rec.Trials[i]})
			}
			recs = append(recs, record{Op: "seal", Key: k, State: rec.State})
		}
	}
	err = journal.WriteFile(d.segPath(d.segNum), func(w io.Writer) error {
		enc := json.NewEncoder(w) // Encode = json.Marshal + '\n': a journal record line
		for _, rec := range recs {
			rec.V = formatVersion
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	d.segNum++
	for _, k := range keys {
		if !d.mem.recs[k].Sealed {
			delete(d.mem.recs, k)
			dropped++
		}
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			return dropped, fmt.Errorf("archive: %w", err)
		}
	}
	return dropped, nil
}

// Export writes every record as one JSON line to w, in key order.
func (d *Disk) Export(w io.Writer) error {
	return ExportStore(d, w)
}

// Import merges records from an Export stream into the archive,
// skipping keys that already exist. It returns the number imported.
func (d *Disk) Import(r io.Reader) (int, error) {
	return ImportStore(d, r)
}

// Close implements Store.
func (d *Disk) Close() error {
	d.mem.mu.Lock()
	defer d.mem.mu.Unlock()
	d.closed = true
	if d.seg != nil {
		err := d.seg.Close()
		d.seg = nil
		return err
	}
	return nil
}

// ExportStore writes every record of any Store as one JSON line per
// session, in key order.
func ExportStore(s Store, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, key := range s.Keys() {
		rec, ok := s.Get(key)
		if !ok {
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	return bw.Flush()
}

// ImportStore merges an Export stream into any Store, skipping keys
// that already exist. It returns the number of sessions imported.
func ImportStore(s Store, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	existing := make(map[string]bool)
	for _, k := range s.Keys() {
		existing[k] = true
	}
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec SessionRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, fmt.Errorf("archive: import: %w", err)
		}
		if existing[rec.Meta.Key] {
			continue
		}
		if err := s.Begin(rec.Meta); err != nil {
			return n, err
		}
		if len(rec.Trials) > 0 {
			if err := s.Append(rec.Meta.Key, rec.Trials...); err != nil {
				return n, err
			}
		}
		if rec.Sealed {
			if err := s.Seal(rec.Meta.Key, rec.State); err != nil {
				return n, err
			}
		}
		existing[rec.Meta.Key] = true
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("archive: import: %w", err)
	}
	return n, nil
}
