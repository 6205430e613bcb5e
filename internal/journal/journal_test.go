package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	N    int    `json:"n"`
	Note string `json:"note,omitempty"`
}

// openAll opens path and returns the log with every replayed record.
func openAll(t *testing.T, path string) (*Log, []rec, error) {
	t.Helper()
	var got []rec
	l, err := Open(path, func(r rec) error {
		got = append(got, r)
		return nil
	})
	return l, got, err
}

// script writes n records and returns the file bytes and the record
// boundaries (offset just past each newline).
func script(t *testing.T, path string, n int) ([]byte, []int) {
	t.Helper()
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(rec{N: i, Note: strings.Repeat("x", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int
	for i, b := range data {
		if b == '\n' {
			bounds = append(bounds, i+1)
		}
	}
	if len(bounds) != n {
		t.Fatalf("%d records wrote %d lines", n, len(bounds))
	}
	return data, bounds
}

func want(n int) []rec {
	var out []rec
	for i := 0; i < n; i++ {
		out = append(out, rec{N: i, Note: strings.Repeat("x", i%3)})
	}
	return out
}

// TestCrashAtEveryOffset cuts a scripted log at every byte offset, as a
// crash mid-append can: Open must replay exactly the records wholly
// inside the prefix, truncate the file to the last record boundary, and
// keep working after more appends.
func TestCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full, bounds := script(t, filepath.Join(dir, "full.log"), 6)
	path := filepath.Join(dir, "cut.log")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, boundary := 0, 0
		for _, b := range bounds {
			if b <= cut {
				whole, boundary = whole+1, b
			}
		}
		l, got, err := openAll(t, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want(whole)) {
			t.Fatalf("cut %d: replayed %v, want the first %d records", cut, got, whole)
		}
		if err := l.Append(rec{N: 99}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[:boundary], full[:boundary]) || !bytes.Equal(data[boundary:], []byte(`{"n":99}`+"\n")) {
			t.Fatalf("cut %d: file is %q, want the prefix up to %d then the new record", cut, data, boundary)
		}
		l, got, err = openAll(t, path)
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		l.Close()
		if w := append(want(whole), rec{N: 99}); !reflect.DeepEqual(got, w) {
			t.Fatalf("cut %d: reopened %v, want %v", cut, got, w)
		}
	}
}

func TestBlankLinesAndUndecodableTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	// Blank lines are skipped; an undecodable line followed only by
	// blanks is a torn tail.
	body := "\n" + `{"n":1}` + "\n  \n" + `{"n":2}` + "\n"
	if err := os.WriteFile(path, []byte(body+"{garb\n \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := openAll(t, path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !reflect.DeepEqual(got, []rec{{N: 1}, {N: 2}}) {
		t.Fatalf("replayed %v", got)
	}
	if data, _ := os.ReadFile(path); string(data) != body {
		t.Fatalf("file %q, want %q", data, body)
	}
}

func TestCorruptionLeavesFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	for _, tc := range []struct {
		name, body string
		offset     int64
		fold       func(rec) error
	}{
		{"undecodable mid-file", `{"n":1}` + "\nnot json\n" + `{"n":2}` + "\n", 8, nil},
		{"undecodable before a torn tail", `{"n":1}` + "\n{x\n" + `{"n":`, 8, nil},
		{"fold rejects", `{"n":1}` + "\n" + `{"n":-1}` + "\n", 8, func(r rec) error {
			if r.N < 0 {
				return errors.New("negative")
			}
			return nil
		}},
	} {
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		fold := tc.fold
		if fold == nil {
			fold = func(rec) error { return nil }
		}
		_, err := Open(path, fold)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path != path || ce.Offset != tc.offset {
			t.Fatalf("%s: Open = %v, want a CorruptError at offset %d", tc.name, err, tc.offset)
		}
		if data, _ := os.ReadFile(path); string(data) != tc.body {
			t.Fatalf("%s: corrupt file was modified: %q", tc.name, data)
		}
	}
}

// TestDurabilityPoints: Append only buffers; Flush and Sync hand the
// records to the file.
func TestDurabilityPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := l.Append(rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if size() != 0 {
		t.Fatal("Append must only buffer")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if size() != 8 {
		t.Fatalf("size after Flush = %d, want 8", size())
	}
	if err := l.Append(rec{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if size() != 16 {
		t.Fatalf("size after Sync = %d, want 16", size())
	}
	if err := l.Append(func() {}); err == nil {
		t.Fatal("an unmarshalable record must be refused")
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFile(path, put("old")); err != nil {
		t.Fatal(err)
	}
	// A write that fails halfway leaves the old file and no temp file.
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return fmt.Errorf("crash")
	})
	if err == nil {
		t.Fatal("the write error must be returned")
	}
	if data, _ := os.ReadFile(path); string(data) != "old" {
		t.Fatalf("failed write clobbered the target: %q", data)
	}
	if err := WriteFile(path, put("new")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "new" {
		t.Fatalf("target = %q, want new", data)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(ents))
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", fi.Mode().Perm())
	}
}
