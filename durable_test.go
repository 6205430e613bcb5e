package stormtune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// savedTunerState runs a small tuning session for steps and returns its
// saved snapshot.
func savedTunerState(t testing.TB, steps int) []byte {
	t.Helper()
	top := BuildSynthetic("small", Condition{}, 1)
	tn, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), fastTunerOpts(1, steps))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tn.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// savedWatchState runs a small watch to horizon and returns its saved
// snapshot.
func savedWatchState(t testing.TB, horizon float64) []byte {
	t.Helper()
	top := BuildSynthetic("small", Condition{}, 1)
	template := DefaultSyntheticConfig(top, 1)
	w, err := NewWatcher(top, AsBackend(quietEval(top, SmallCluster())), WatchOptions{
		WatchPlan: WatchPlan{Steps: 4, TrialCost: 60, HoldInterval: 60, Horizon: horizon},
		Seed:      1, Template: &template,
		OptimizerOptions: OptimizerOptions{Candidates: 60, HyperSamples: 2, LocalSearchIters: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshot is what TunerState and WatchState share.
type snapshot interface {
	Save(io.Writer) error
	SaveFile(path string) error
}

// snapshotKind drives one snapshot type through the tests below: save
// loads data and writes it with SaveFile; load reads a file back and
// re-Saves it.
type snapshotKind struct {
	name          string
	before, after []byte
	save          func(path string, data []byte) error
	load          func(path string) ([]byte, error)
}

func newSnapshotKind[S snapshot](name string, before, after []byte, load func(io.Reader) (S, error)) snapshotKind {
	return snapshotKind{
		name: name, before: before, after: after,
		save: func(path string, data []byte) error {
			st, err := load(bytes.NewReader(data))
			if err != nil {
				return err
			}
			return st.SaveFile(path)
		},
		load: func(path string) ([]byte, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			st, err := load(f)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = st.Save(&buf)
			return buf.Bytes(), err
		},
	}
}

func snapshotKinds(t *testing.T) []snapshotKind {
	return []snapshotKind{
		newSnapshotKind("tuner", savedTunerState(t, 3), savedTunerState(t, 5), LoadTunerState),
		newSnapshotKind("watch", savedWatchState(t, 600), savedWatchState(t, 1200), LoadWatchState),
	}
}

// TestSaveFileCrashLeavesCompleteSnapshot: SaveFile writes exactly the
// bytes Save does, and replaces the file atomically. A crash can leave
// a temp file holding any prefix of the snapshot being written beside
// either the old or the new target; the target always loads as one
// complete snapshot, and the next SaveFile succeeds over the debris.
func TestSaveFileCrashLeavesCompleteSnapshot(t *testing.T) {
	for _, k := range snapshotKinds(t) {
		if bytes.Equal(k.before, k.after) {
			t.Fatalf("%s: the two snapshots must differ", k.name)
		}
		for _, target := range [][]byte{k.before, k.after} {
			for _, cut := range []int{0, len(k.after) / 2, len(k.after)} {
				dir := t.TempDir()
				path := filepath.Join(dir, "state.json")
				if err := k.save(path, target); err != nil {
					t.Fatal(err)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, target) {
					t.Fatalf("%s: SaveFile bytes differ from Save", k.name)
				}
				debris := filepath.Join(dir, ".state.json.tmp-123")
				if err := os.WriteFile(debris, k.after[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				got, err := k.load(path)
				if err != nil || !bytes.Equal(got, target) {
					t.Fatalf("%s: temp file with %d bytes: target does not load as the complete snapshot (%v)", k.name, cut, err)
				}
				if err := k.save(path, k.after); err != nil {
					t.Fatal(err)
				}
				if got, err := k.load(path); err != nil || !bytes.Equal(got, k.after) {
					t.Fatalf("%s: SaveFile over a leftover temp file: %v", k.name, err)
				}
			}
		}
	}
}

// TestOpenRefusesCorruptDurableState: a bad record in the middle of a
// fleet log or an archive segment surfaces as a *CorruptRecordError
// through the public openers, and the file is left as it was.
func TestOpenRefusesCorruptDurableState(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "fleet.log")
	flog, err := CreateFleetLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := flog.l.Snapshot("alpha", 1, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}
	archDir := filepath.Join(dir, "archive")
	arch, err := OpenArchive(archDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Begin(ArchiveMeta{Key: "k", Fingerprint: 1}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(archDir, "seg-000001.jsonl")
	for _, path := range []string{logPath, seg} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append([]byte("{garbage\n"), data...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.ReadFile(logPath)
	var ce *CorruptRecordError
	if _, err := OpenFleetLog(logPath); !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("OpenFleetLog = %v, want a CorruptRecordError at offset 0", err)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Fatal("a refused fleet log must be left unchanged")
	}
	if _, err := OpenArchive(archDir); !errors.As(err, &ce) || ce.Path != seg {
		t.Fatalf("OpenArchive = %v, want a CorruptRecordError in %s", err, seg)
	}
}

// checkRoundTrip loads data and, if load accepts it, requires the
// snapshot to survive Save → load → Save unchanged.
func checkRoundTrip[S snapshot](t *testing.T, data []byte, load func(io.Reader) (S, error)) {
	st, err := load(bytes.NewReader(data))
	if err != nil {
		return
	}
	var b1, b2 bytes.Buffer
	if err := st.Save(&b1); err != nil {
		t.Fatalf("an accepted snapshot must save: %v", err)
	}
	st2, err := load(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("a saved snapshot must load: %v", err)
	}
	if err := st2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshot does not round-trip:\n%s\nvs\n%s", b1.Bytes(), b2.Bytes())
	}
}

// FuzzLoadTunerState: arbitrary bytes never panic LoadTunerState, and
// anything it accepts round-trips through Save.
func FuzzLoadTunerState(f *testing.F) {
	f.Add(savedTunerState(f, 3))
	f.Add([]byte(`{"version":1,"session":{}}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`garbage`))
	f.Add(readFixture(f, tunerStateFixture))
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, LoadTunerState) })
}

// FuzzLoadWatchState: arbitrary bytes never panic LoadWatchState, and
// anything it accepts round-trips through Save.
func FuzzLoadWatchState(f *testing.F) {
	f.Add(savedWatchState(f, 600))
	f.Add([]byte(`{"version":1,"watch":{}}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`garbage`))
	f.Add(readFixture(f, watchStateFixture))
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data, LoadWatchState) })
}
