package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stormtune/internal/cluster"
	"stormtune/internal/journal"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

func chain(name string, n int) *topo.Topology {
	nodes := make([]topo.Node, n)
	var edges []topo.Edge
	for i := range nodes {
		kind := topo.Bolt
		if i == 0 {
			kind = topo.Spout
		}
		nodes[i] = topo.Node{Name: string(rune('a' + i)), Kind: kind, TimeUnits: 1, Selectivity: 1, TupleBytes: 100}
		if i > 0 {
			edges = append(edges, topo.Edge{From: i - 1, To: i})
		}
	}
	return topo.MustNew(name, nodes, edges)
}

func cfg(hints ...int) storm.Config {
	return storm.Config{Hints: hints, MaxTasks: 64}
}

func meta(key string, t *topo.Topology) SessionMeta {
	return SessionMeta{
		Key:         key,
		Fingerprint: t.Fingerprint(),
		Topology:    t.Name,
		Features:    Extract(t, cluster.Small()),
	}
}

func TestExtractFeatures(t *testing.T) {
	tp := chain("c5", 5)
	f := Extract(tp, cluster.Small())
	want := Features{Nodes: 5, Spouts: 1, Edges: 4, Depth: 5, FanOut: 1, Machines: 4, Slots: 48}
	if f != want {
		t.Fatalf("features = %+v, want %+v", f, want)
	}
	if g := Extract(tp, cluster.Small()); g != f {
		t.Fatal("Extract is not deterministic")
	}
}

func TestSimilarity(t *testing.T) {
	a := Extract(chain("c5", 5), cluster.Small())
	if s := Similarity(a, a); s != 1 {
		t.Fatalf("self similarity = %v, want 1", s)
	}
	b := Extract(chain("c6", 6), cluster.Small())
	c := Extract(chain("c50", 50), cluster.Paper())
	if Similarity(a, b) != Similarity(b, a) {
		t.Fatal("similarity is not symmetric")
	}
	if Similarity(a, b) <= Similarity(a, c) {
		t.Fatalf("near chain should outrank far chain: near=%v far=%v", Similarity(a, b), Similarity(a, c))
	}
	if s := Similarity(a, c); s <= 0 || s >= 1 {
		t.Fatalf("similarity must stay in (0,1): %v", s)
	}
}

func TestQueryRanksExactFirst(t *testing.T) {
	tp := chain("c5", 5)
	near := chain("c6", 6)
	far := chain("c50", 50)
	st := NewMem()
	for _, m := range []SessionMeta{meta("far", far), meta("near", near), meta("same", tp)} {
		if err := st.Begin(m); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(m.Key, TrialRecord{Step: 1, Config: cfg(1, 1, 1, 1, 1), Y: 10}); err != nil {
			t.Fatal(err)
		}
	}
	got := Query(st, tp.Fingerprint(), Extract(tp, cluster.Small()), 3)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	if !got[0].Exact || got[0].Rec.Meta.Key != "same" || got[0].Sim != 1 {
		t.Fatalf("exact match should rank first, got %+v", got[0])
	}
	if got[1].Rec.Meta.Key != "near" || got[2].Rec.Meta.Key != "far" {
		t.Fatalf("feature ranking wrong: %q then %q", got[1].Rec.Meta.Key, got[2].Rec.Meta.Key)
	}
	// A record with only failed trials carries nothing transferable.
	if err := st.Begin(SessionMeta{Key: "allfail", Fingerprint: tp.Fingerprint()}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("allfail", TrialRecord{Step: 1, Config: cfg(1, 1, 1, 1, 1), Failed: true}); err != nil {
		t.Fatal(err)
	}
	got = Query(st, tp.Fingerprint(), Extract(tp, cluster.Small()), 10)
	for _, r := range got {
		if r.Rec.Meta.Key == "allfail" {
			t.Fatal("all-failed record should be skipped")
		}
	}
}

func TestTopKDedupsAndOrders(t *testing.T) {
	rec := SessionRecord{Trials: []TrialRecord{
		{Step: 1, Config: cfg(1, 1), Y: 5},
		{Step: 2, Config: cfg(2, 2), Y: 9},
		{Step: 3, Config: cfg(2, 2), Y: 9}, // re-measured incumbent
		{Step: 4, Config: cfg(3, 3), Y: 7},
		{Step: 5, Config: cfg(4, 4), Failed: true},
	}}
	top := rec.TopK(3)
	if len(top) != 3 {
		t.Fatalf("got %d, want 3", len(top))
	}
	if top[0].Y != 9 || top[1].Y != 7 || top[2].Y != 5 {
		t.Fatalf("wrong order: %v %v %v", top[0].Y, top[1].Y, top[2].Y)
	}
	if best, ok := rec.Best(); !ok || best.Y != 9 {
		t.Fatalf("best = %+v, %v", best, ok)
	}
}

// populate runs the same op sequence against any store.
func populate(t *testing.T, st Store) {
	t.Helper()
	tp := chain("c5", 5)
	if err := st.Begin(meta("run-1", tp)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("run-1",
		TrialRecord{Step: 1, Config: cfg(1, 1, 1, 1, 1), Y: 3},
		TrialRecord{Step: 2, Config: cfg(2, 2, 2, 2, 2), Y: 8},
	); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal("run-1", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(meta("run-2", chain("c6", 6))); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("run-2", TrialRecord{Step: 1, Config: cfg(1, 1, 1, 1, 1, 1), Y: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestMemDiskParity(t *testing.T) {
	mem := NewMem()
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	populate(t, mem)
	populate(t, disk)
	if !reflect.DeepEqual(mem.Keys(), disk.Keys()) {
		t.Fatalf("keys differ: %v vs %v", mem.Keys(), disk.Keys())
	}
	for _, k := range mem.Keys() {
		a, _ := mem.Get(k)
		b, _ := disk.Get(k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %q differs:\nmem  %+v\ndisk %+v", k, a, b)
		}
		if mem.LastStep(k) != disk.LastStep(k) {
			t.Fatalf("last step differs for %q", k)
		}
	}
}

func TestDiskReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, d)
	before, _ := d.Get("run-1")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	after, ok := d2.Get("run-1")
	if !ok || !reflect.DeepEqual(before, after) {
		t.Fatalf("round trip lost data: %+v vs %+v", before, after)
	}
	if got := d2.LastStep("run-1"); got != 2 {
		t.Fatalf("last step = %d, want 2", got)
	}
	if rec, _ := d2.Get("run-1"); !rec.Sealed || string(rec.State) != `{"v":1}` {
		t.Fatalf("seal state lost: %+v", rec)
	}
	// Segments are the only state: no index catalog is written.
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Fatalf("index.json must not be written (stat err %v)", err)
	}
}

// TestDiskTornTailTruncated is the crash-safety contract: a record cut
// mid-write (kill -9 during append) must not poison the archive — the
// torn tail is truncated on open and everything before it survives.
func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, d)
	d.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	torn := full[:len(full)-10]
	if err := os.WriteFile(segs[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer d2.Close()
	// The torn record was run-2's only trial; the begin survived.
	if rec, ok := d2.Get("run-2"); !ok || len(rec.Trials) != 0 {
		t.Fatalf("torn trial should be dropped, got %+v ok=%v", rec, ok)
	}
	if rec, ok := d2.Get("run-1"); !ok || len(rec.Trials) != 2 || !rec.Sealed {
		t.Fatalf("earlier records must survive: %+v", rec)
	}
	// The file itself was truncated to the last good record.
	now, _ := os.ReadFile(segs[0])
	if len(now) >= len(torn) {
		t.Fatalf("segment not truncated: %d >= %d", len(now), len(torn))
	}
	if len(now) == 0 || now[len(now)-1] != '\n' {
		t.Fatal("truncated segment must end on a record boundary")
	}
}

func TestDiskMidFileCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, d)
	d.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	data, _ := os.ReadFile(segs[0])
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("want ≥3 lines, got %d", len(lines))
	}
	lines[0] = []byte("{garbage\n")
	if err := os.WriteFile(segs[0], bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption must error, not truncate away good records")
	}
}

func TestDiskRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	if err := os.WriteFile(seg, []byte(`{"v":99,"op":"begin","meta":{"key":"x"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	var ce *journal.CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("newer record version must be rejected as corrupt at offset 0, got %v", err)
	}
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	// The index.json older versions wrote is ignored, whatever it says:
	// every segment record carries its own version.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"v":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("a stale index.json must be ignored: %v", err)
	}
	d.Close()
}

func TestDiskReattachAndLastStep(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, d)
	d.Close()
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// Re-begin with the same key continues the record.
	if err := d2.Begin(meta("run-2", chain("c6", 6))); err != nil {
		t.Fatal(err)
	}
	if got := d2.LastStep("run-2"); got != 1 {
		t.Fatalf("last step = %d, want 1", got)
	}
	if err := d2.Append("run-2", TrialRecord{Step: 2, Config: cfg(2, 2, 2, 2, 2, 2), Y: 6}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := d2.Get("run-2"); len(rec.Trials) != 2 {
		t.Fatalf("want 2 trials after re-attach, got %d", len(rec.Trials))
	}
	// A different fingerprint under the same key is a caller bug.
	if err := d2.Begin(meta("run-2", chain("other", 7))); err == nil {
		t.Fatal("fingerprint mismatch on re-begin must error")
	}
}

func TestDiskGC(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, d) // run-1 sealed, run-2 unsealed
	dropped, err := d.GC()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if got := d.Keys(); len(got) != 1 || got[0] != "run-1" {
		t.Fatalf("keys after gc = %v", got)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("gc should compact to one segment, got %v", segs)
	}
	d.Close()
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec, ok := d2.Get("run-1"); !ok || len(rec.Trials) != 2 || !rec.Sealed {
		t.Fatalf("compacted record wrong: %+v ok=%v", rec, ok)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	populate(t, d)
	var buf bytes.Buffer
	if err := d.Export(&buf); err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	n, err := ImportStore(mem, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("imported %d, want 2", n)
	}
	for _, k := range d.Keys() {
		a, _ := d.Get(k)
		b, _ := mem.Get(k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("import lost data for %q", k)
		}
	}
	// Importing again is a no-op (keys exist).
	n, err = ImportStore(mem, bytes.NewReader(buf.Bytes()))
	if err != nil || n != 0 {
		t.Fatalf("re-import = %d, %v; want 0, nil", n, err)
	}
}
