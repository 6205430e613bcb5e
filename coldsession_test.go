package stormtune

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// coldTrial is one trial of the cold-session fixture: its step, the
// proposed configuration's fingerprint and the bits of the measured
// throughput.
type coldTrial struct {
	Step           int    `json:"step"`
	Config         uint64 `json:"config"`
	ThroughputBits uint64 `json:"throughputBits"`
}

// coldSessionFixture is testdata/cold_session_records.json: the trials
// of two cold sessions at the library's default optimizer settings.
type coldSessionFixture struct {
	Small60      []coldTrial `json:"small60"`
	WholeHistory []coldTrial `json:"wholeHistory120"`
}

// coldSession runs one cold session of the small topology on the paper
// cluster's in-process simulator, every optimizer knob at its default:
// the full candidate grid, so the acquisition scan's sixteen-wide
// blocks, the four-lane local search and the whole-history GP are all
// on the path.
func coldSession(t *testing.T, seed int64, steps int) []coldTrial {
	t.Helper()
	top := BuildSynthetic("small", Condition{}, 1)
	spec := PaperCluster()
	tmpl := DefaultSyntheticConfig(top, 1)
	opts := TunerOptions{Steps: steps, Seed: seed, Cluster: &spec, Template: &tmpl}
	tn, err := NewTuner(top, AsBackend(NewFluidSim(top, spec, SinkTuples, 1)), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]coldTrial, len(res.Records))
	for i, r := range res.Records {
		out[i] = coldTrial{Step: r.Step, Config: r.Config.Fingerprint(), ThroughputBits: math.Float64bits(r.Result.Throughput)}
	}
	return out
}

// TestColdSessionsMatchFixture pins two cold sessions to the trials in
// testdata/cold_session_records.json, recorded before the acquisition
// scan's kernel rows were blocked sixteen candidates at a time: a
// 60-step session (paper-seq's procedure, seed 3) and a 120-step
// whole-history session (long-history's, seed 5; skipped under -short).
// How a kernel row, a variance solve or a lane sum is computed must
// never change a proposal or a measurement.
//
// Like TestWarmPriorSessionsMatchFixture, the fixture holds only on
// amd64, where Go never fuses a multiply and an add.
func TestColdSessionsMatchFixture(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "cold_session_records.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want coldSessionFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want []coldTrial) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d trials, fixture has %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: trial %d = %+v, fixture %+v", name, i+1, got[i], want[i])
			}
		}
	}
	check("small60", coldSession(t, 3, 60), want.Small60)
	if testing.Short() {
		t.Log("skipping the 120-step whole-history session under -short")
		return
	}
	check("wholeHistory120", coldSession(t, 5, 120), want.WholeHistory)
}
