package fleetlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stormtune/internal/journal"
)

func mustAppend(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func writeSome(t *testing.T, l *Log) {
	t.Helper()
	mustAppend(t, l.AppendEvent("alpha", 1, json.RawMessage(`{"e":1}`)))
	mustAppend(t, l.AppendEvent("alpha", 2, json.RawMessage(`{"e":2}`)))
	mustAppend(t, l.Snapshot("alpha", 2, json.RawMessage(`{"state":"a2"}`)))
	mustAppend(t, l.AppendEvent("beta", 1, json.RawMessage(`{"e":1}`)))
	mustAppend(t, l.Snapshot("beta", 1, json.RawMessage(`{"state":"b1"}`)))
	mustAppend(t, l.Snapshot("alpha", 5, json.RawMessage(`{"state":"a5"}`)))
}

func TestRoundTripAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	writeSome(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Members(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Members = %v", got)
	}
	a, ok := r.MemberState("alpha")
	if !ok || a.Seq != 5 || string(a.State) != `{"state":"a5"}` || a.Events != 2 {
		t.Fatalf("alpha = %+v (ok=%v), want seq 5, last snapshot, 2 events", a, ok)
	}
	b, _ := r.MemberState("beta")
	if b.Seq != 1 || string(b.State) != `{"state":"b1"}` {
		t.Fatalf("beta = %+v", b)
	}
	// The reopened log keeps appending: a later snapshot wins.
	mustAppend(t, r.Snapshot("beta", 3, json.RawMessage(`{"state":"b3"}`)))
	b, _ = r.MemberState("beta")
	if b.Seq != 3 {
		t.Fatalf("beta after append = %+v", b)
	}
}

// TestOpenTruncatesTornTail: a crash mid-append leaves a partial final
// line; Open must fold everything before it and truncate the file back
// to the last intact record.
func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	writeSome(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: half a record, no newline.
	torn := append(append([]byte{}, intact...), []byte(`{"kind":"snapshot","member":"alpha","seq":9,"st`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.MemberState("alpha")
	if a.Seq != 5 {
		t.Fatalf("alpha seq = %d, want 5 (torn record must not count)", a.Seq)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(intact) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(after), len(intact))
	}
}

// TestOpenDropsNewlineLessFinalLine: a final line that parses as JSON
// but lacks its terminating newline is still a torn tail — the writer
// always terminates records, so the line may be a prefix of a longer
// payload that happens to parse.
func TestOpenDropsNewlineLessFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l.Snapshot("alpha", 1, json.RawMessage(`{"s":1}`)))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Parses fine, but no trailing newline.
	if _, err := f.WriteString(`{"kind":"snapshot","member":"alpha","seq":7,"state":{"s":7}}`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, _ := r.MemberState("alpha")
	if a.Seq != 1 {
		t.Fatalf("alpha seq = %d, want 1: a newline-less tail must be dropped", a.Seq)
	}
}

// TestOpenStopsAtForeignLine: garbage in the middle of the file (a
// concurrent writer, manual editing) is corruption, not a torn tail:
// Open refuses the log and leaves it byte for byte as it was, rather
// than truncate away the durable snapshots after the bad line.
func TestOpenStopsAtForeignLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l.Snapshot("alpha", 1, json.RawMessage(`{"s":1}`)))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n" + `{"kind":"snapshot","member":"alpha","seq":9,"state":{"s":9}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = Open(path)
	var ce *journal.CorruptError
	if !errors.As(err, &ce) || ce.Offset != int64(len(intact)) {
		t.Fatalf("Open = %v, want a CorruptError at offset %d", err, len(intact))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a refused log must be left byte for byte unchanged")
	}
}

// TestOpenRejectsMemberlessRecord: a line that decodes but names no
// member is not a fleet-log record, and the log never writes one.
func TestOpenRejectsMemberlessRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvent("", 1, json.RawMessage(`{}`)); err == nil {
		t.Fatal("an event without a member must be refused")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"kind":"event","seq":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *journal.CorruptError
	if _, err := Open(path); !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want a CorruptError", err)
	}
}
