package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalOpen feeds arbitrary file bytes to Open. It must never
// panic, and either refuse the file with a *CorruptError, leaving it
// unchanged, or replay exactly the records of a prefix of it that ends
// on a record boundary, truncating the file to that prefix. A second
// Open of the result is a no-op.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"n":1}` + "\n" + `{"n":2}` + "\n"))
	f.Add([]byte(`{"n":1}` + "\n" + `{"n":`))
	f.Add([]byte(`{"n":1}` + "\ngarbage\n" + `{"n":2}` + "\n"))
	f.Add([]byte("\n \n\t\nnull\n[1,2]\n\"s\"\n"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]json.RawMessage, error) {
			var got []json.RawMessage
			l, err := Open(path, func(r json.RawMessage) error {
				got = append(got, r)
				return nil
			})
			if err == nil {
				err = l.Close()
			}
			return got, err
		}
		got, err := open()
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open failed with %v, want a *CorruptError", err)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("a refused file was modified")
			}
			return
		}
		if !bytes.HasPrefix(data, after) || (len(after) > 0 && after[len(after)-1] != '\n') {
			t.Fatalf("file truncated to %q, not a record-boundary prefix of %q", after, data)
		}
		var want []json.RawMessage
		for _, line := range bytes.SplitAfter(after, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				want = append(want, line)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, the kept prefix holds %d lines", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
		again, err := open()
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		final, _ := os.ReadFile(path)
		if !bytes.Equal(final, after) || len(again) != len(got) {
			t.Fatal("a second Open must be a no-op")
		}
	})
}
