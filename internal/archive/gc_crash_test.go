package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// export replays dir and returns its ExportStore bytes.
func export(t *testing.T, dir string) []byte {
	t.Helper()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var buf bytes.Buffer
	if err := d.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGCCrashPoints builds every directory state a crash during GC can
// leave — the compacted segment not yet renamed into place (a partial
// or complete temp file beside the old segments), renamed but no old
// segment removed, and any subset of the old segments removed — and
// requires each to open to exactly the pre-GC or the post-GC state.
func TestGCCrashPoints(t *testing.T) {
	src := t.TempDir()
	scriptArchive(t, src) // two segments: run-1 and run-3 sealed, run-2 deleted
	d, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin(meta("run-4", chain("c4", 4))); err != nil { // left unsealed
		t.Fatal(err)
	}
	if err := d.Append("run-4", TrialRecord{Step: 1, Config: cfg(1, 1, 1, 1), Y: 2}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	pre := readDir(t, src)
	var old []string
	for name := range pre {
		old = append(old, name)
	}
	if len(old) != 3 {
		t.Fatalf("want 3 pre-GC segments, got %v", old)
	}
	preExport := export(t, writeDir(t, pre))

	d, err = Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if dropped, err := d.GC(); err != nil || dropped != 1 {
		t.Fatalf("GC = %d, %v; want 1 dropped", dropped, err)
	}
	var live bytes.Buffer
	if err := d.Export(&live); err != nil {
		t.Fatal(err)
	}
	d.Close()
	post := readDir(t, src)
	compacted, ok := post["seg-000004.jsonl"]
	if len(post) != 1 || !ok {
		t.Fatalf("GC left %d files, want only seg-000004.jsonl", len(post))
	}
	postExport := export(t, writeDir(t, post))
	if !bytes.Equal(postExport, live.Bytes()) {
		t.Fatal("the compacted archive replays differently from the live post-GC state")
	}
	if bytes.Equal(preExport, postExport) {
		t.Fatal("GC must change the state for this test to discriminate")
	}

	// Crash before the rename: the temp file (any prefix of the
	// compacted segment) is ignored.
	for _, cut := range []int{0, len(compacted) / 2, len(compacted)} {
		files := readDir(t, writeDir(t, pre))
		files[".seg-000004.jsonl.tmp-123"] = compacted[:cut]
		if got := export(t, writeDir(t, files)); !bytes.Equal(got, preExport) {
			t.Fatalf("temp file with %d bytes: archive does not open to the pre-GC state", cut)
		}
	}
	// Crash after the rename, with any subset of the old segments still
	// on disk (removals need not reach the disk in order).
	for mask := 0; mask < 1<<len(old); mask++ {
		files := map[string][]byte{"seg-000004.jsonl": compacted}
		for i, name := range old {
			if mask&(1<<i) != 0 {
				files[name] = pre[name]
			}
		}
		dir := writeDir(t, files)
		if got := export(t, dir); !bytes.Equal(got, postExport) {
			t.Fatalf("old segments %b left: archive does not open to the post-GC state", mask)
		}
		// The recovered archive keeps working: new writes land in a later
		// segment and a second GC is clean.
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Begin(meta("run-5", chain("c5", 5))); err != nil {
			t.Fatal(err)
		}
		if dropped, err := d.GC(); err != nil || dropped != 1 {
			t.Fatalf("second GC = %d, %v; want 1 dropped", dropped, err)
		}
		d.Close()
		if got := export(t, dir); !bytes.Equal(got, postExport) {
			t.Fatalf("old segments %b left: second GC changed the sealed state", mask)
		}
	}
}
