package stormtune

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The snapshot format fixtures, recorded before the option structs were
// embedded in TunerState and WatchState:
//
//   - tuner_state_v1.json: a warm-started ask/tell session on the small
//     topology (two archived donors, transfer prior on) with every
//     optimizer knob set, StopAfterZeros and Parallel set, fourteen
//     reported trials and three pending ones;
//   - watch_state_v1.json: a watch under a flash crowd, snapshotted
//     three trials into its first retune episode, with every watch-plan
//     field and every optimizer knob set.
//
// Both carry an archive key. Loading a fixture, resuming it and taking
// a fresh snapshot must reproduce the fixture byte for byte, in the
// indented Save form and in the compact json.Marshal form the fleet log
// stores.
const (
	tunerStateFixture = "tuner_state_v1.json"
	watchStateFixture = "watch_state_v1.json"
)

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkSnapshotBytes requires st to save as the fixture and to marshal
// as its compact form.
func checkSnapshotBytes(t *testing.T, fixture []byte, st snapshot) {
	t.Helper()
	var saved bytes.Buffer
	if err := st.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), fixture) {
		t.Fatalf("Save form differs from the fixture:\n%s", saved.Bytes())
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, fixture); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, compact.Bytes()) {
		t.Fatalf("json.Marshal form differs from the compacted fixture:\n%s", raw)
	}
}

func TestTunerStateFixtureResumesByteForByte(t *testing.T) {
	fixture := readFixture(t, tunerStateFixture)
	st, err := LoadTunerState(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Session.Pending) == 0 || st.Transfer == nil || st.ArchiveKey == "" {
		t.Fatal("fixture must carry pending trials, a transfer seed and an archive key")
	}
	top := BuildSynthetic("small", Condition{}, 1)
	tn, err := ResumeTuner(st, top, AsBackend(quietEval(top, SmallCluster())), TunerOptions{Archive: NewMemArchive()})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotBytes(t, fixture, tn.Snapshot())
}

func TestWatchStateFixtureResumesByteForByte(t *testing.T) {
	fixture := readFixture(t, watchStateFixture)
	st, err := LoadWatchState(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if st.Watch.Phase != "retune" || st.Watch.Session == nil || st.ArchiveKey == "" {
		t.Fatal("fixture must be taken mid-retune and carry an archive key")
	}
	top := BuildSynthetic("small", Condition{}, 1)
	w, err := ResumeWatcher(st, top, AsBackend(quietEval(top, SmallCluster())), WatchOptions{Archive: NewMemArchive()})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotBytes(t, fixture, w.Snapshot())
}

// TestSnapshotEntryPointsRejectBadState: every entry point that accepts
// a snapshot refuses an unknown version and a snapshot without its
// session.
func TestSnapshotEntryPointsRejectBadState(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	b := AsBackend(quietEval(top, SmallCluster()))
	type badState struct{ name, raw, want string }
	tunerStates := []badState{
		{"version 2", `{"version":2,"nodes":10,"session":{}}`, "version 2"},
		{"no session", `{"version":1,"nodes":10}`, "no session"},
	}
	watchStates := []badState{
		{"version 2", `{"version":2,"nodes":10,"watch":{"version":1,"phase":"tune"}}`, "version 2"},
		{"no session", `{"version":1,"nodes":10}`, "no controller state"},
	}
	for _, e := range []struct {
		name   string
		states []badState
		accept func(raw string) error
	}{
		{"LoadTunerState", tunerStates, func(raw string) error {
			_, err := LoadTunerState(bytes.NewReader([]byte(raw)))
			return err
		}},
		{"ResumeTuner", tunerStates, func(raw string) error {
			var st TunerState
			if err := json.Unmarshal([]byte(raw), &st); err != nil {
				t.Fatal(err)
			}
			_, err := ResumeTuner(&st, top, b, TunerOptions{})
			return err
		}},
		{"FleetLog.MemberState", tunerStates, func(raw string) error {
			fl, err := CreateFleetLog(filepath.Join(t.TempDir(), "fleet.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			if err := fl.l.Snapshot("alpha", 1, json.RawMessage(raw)); err != nil {
				t.Fatal(err)
			}
			_, err = fl.MemberState("alpha")
			return err
		}},
		{"LoadWatchState", watchStates, func(raw string) error {
			_, err := LoadWatchState(bytes.NewReader([]byte(raw)))
			return err
		}},
		{"ResumeWatcher", watchStates, func(raw string) error {
			var st WatchState
			if err := json.Unmarshal([]byte(raw), &st); err != nil {
				t.Fatal(err)
			}
			_, err := ResumeWatcher(&st, top, b, WatchOptions{})
			return err
		}},
	} {
		for _, s := range e.states {
			if err := e.accept(s.raw); err == nil || !strings.Contains(err.Error(), s.want) {
				t.Errorf("%s on a snapshot with %s: error %v, want one naming %q", e.name, s.name, err, s.want)
			}
		}
	}
}
