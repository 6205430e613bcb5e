package archive

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The testdata/v1 fixture is a two-segment archive (with the index.json
// catalog older writers kept beside the segments) produced by
// scriptArchive, and testdata/v1.export.jsonl is its ExportStore
// output. Both were generated by the previous on-disk implementation;
// these tests pin that the current one reads them to the same records
// and writes the same script to the same segment bytes.

// scriptArchive writes a fixed op sequence across two Opens, so the
// archive ends up with two segments.
func scriptArchive(t *testing.T, dir string) {
	t.Helper()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin(meta("run-3", chain("c7", 7))); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("run-3",
		TrialRecord{Step: 1, Config: cfg(1, 2, 3, 4, 5, 6, 7), Y: 11.5},
		TrialRecord{Step: 2, Config: cfg(2, 2, 2, 2, 2, 2, 2), Failed: true},
	); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("run-2"); err != nil {
		t.Fatal(err)
	}
	if err := d.Seal("run-3", json.RawMessage(`{"best": 1, "note": "<&>"}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the regular files of src into a fresh temp dir, so a
// test can Open a fixture without touching testdata.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestFormatFixtureOpens(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "v1"))
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("fixture must carry the legacy index.json: %v", err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var got bytes.Buffer
	if err := d.Export(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v1.export.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fixture replays differently:\n got %s\nwant %s", got.Bytes(), want)
	}
}

func TestFormatFixtureWrittenByteForByte(t *testing.T) {
	dir := t.TempDir()
	scriptArchive(t, dir)
	for _, name := range []string{"seg-000001.jsonl", "seg-000002.jsonl"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the fixture:\n got %s\nwant %s", name, got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Fatalf("the archive no longer writes index.json (stat err %v)", err)
	}
}
