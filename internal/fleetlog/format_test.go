package fleetlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// testdata/fleet.log was produced by scriptFleet with the previous
// implementation (which re-compacted every marshaled line). These tests
// pin that the current one reads it to the same member states and
// writes the same script to the same bytes. The payloads carry
// whitespace, a newline and HTML-escapable characters: json.Marshal
// already compacts and escapes an embedded RawMessage, which is what
// keeps the lines identical.

func scriptFleet(t *testing.T, l *Log) {
	t.Helper()
	mustAppend(t, l.AppendEvent("alpha", 1, json.RawMessage(`{"kind": "proposed", "step": 1}`)))
	mustAppend(t, l.AppendEvent("alpha", 2, json.RawMessage("{\n  \"e\": 2\n}")))
	mustAppend(t, l.Snapshot("alpha", 2, json.RawMessage(`{"state": "a2", "hints": [1, 2, 3]}`)))
	mustAppend(t, l.AppendEvent("beta", 1, json.RawMessage(`{"e":1}`)))
	mustAppend(t, l.Snapshot("beta", 1, json.RawMessage(`{"state":"b1"}`)))
	mustAppend(t, l.Snapshot("alpha", 5, json.RawMessage(`{"state": "a5", "note": "<&>"}`)))
}

func TestFormatFixtureOpens(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fleet.log"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.log")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Members(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Members = %v", got)
	}
	a, _ := l.MemberState("alpha")
	if a.Seq != 5 || a.Events != 2 || string(a.State) != `{"state":"a5","note":"\u003c\u0026\u003e"}` {
		t.Fatalf("alpha = %+v (state %s)", a, a.State)
	}
	b, _ := l.MemberState("beta")
	if b.Seq != 1 || b.Events != 1 || string(b.State) != `{"state":"b1"}` {
		t.Fatalf("beta = %+v (state %s)", b, b.State)
	}
}

func TestFormatFixtureWrittenByteForByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	scriptFleet(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fleet.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log differs from the fixture:\n got %s\nwant %s", got, want)
	}
}

// TestLinesMatchMarshal pins that every line is json.Marshal of its
// Record, whether the payload is spliced in as it is (already compact
// and escaped) or has to be re-encoded.
func TestLinesMatchMarshal(t *testing.T) {
	payloads := []string{
		`{"state":"a","n":[1,2.5e-3,null,true]}`,
		`{"nested":{"s":"tab\tquote\"back\\slash"}}`,
		`"just a string"`,
		`{"a": 1}`,
		`{"html":"<&>"}`,
		"{\"sep\":\"\u2028\u2029\"}",
		"[\n1,\r\n2\t]",
		`7`,
	}
	path := filepath.Join(t.TempDir(), "fleet.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, p := range payloads {
		for _, member := range []string{"alpha", "b<&>"} {
			seq := int64(i)
			mustAppend(t, l.AppendEvent(member, seq, json.RawMessage(p)))
			mustAppend(t, l.Snapshot(member, seq, json.RawMessage(p)))
			for _, rec := range []Record{
				{Kind: KindEvent, Member: member, Seq: seq, Event: json.RawMessage(p)},
				{Kind: KindSnapshot, Member: member, Seq: seq, State: json.RawMessage(p)},
			} {
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				want.Write(append(line, '\n'))
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("log differs from json.Marshal:\n got %s\nwant %s", got, want.Bytes())
	}
}
