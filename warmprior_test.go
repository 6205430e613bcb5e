package stormtune

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// warmPriorTrial is one trial of the warm-prior fixture: the proposed
// configuration's fingerprint and what the simulator measured for it.
type warmPriorTrial struct {
	Config     uint64  `json:"config"`
	Throughput float64 `json:"throughput"`
	Failed     bool    `json:"failed"`
}

// warmPriorFixture is testdata/warm_prior_records.json: the trials of
// two warm-started sessions with the archived-runs prior switched on.
type warmPriorFixture struct {
	Run   []warmPriorTrial `json:"run"`
	Batch []warmPriorTrial `json:"batch"`
}

// warmPriorSessions archives two cold donor sessions of the small
// topology into a Mem archive, then runs two warm-started sessions over
// it with the transfer prior on: 40 steps through Run, and 15 steps
// through RunBatch(3), whose constant-liar fantasies are conditioned
// with the prior too.
func warmPriorSessions(t *testing.T) warmPriorFixture {
	t.Helper()
	top := BuildSynthetic("small", Condition{}, 1)
	arch := NewMemArchive()
	run := func(seed int64, steps int, warm bool, drive func(*Tuner) (TuneResult, error)) []warmPriorTrial {
		opts := fastTunerOpts(seed, steps)
		opts.Cluster = ptrCluster(SmallCluster())
		opts.Archive = arch
		if warm {
			opts.WarmStart = WarmStartOptions{Enabled: true, Prior: true}
		}
		tn, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm && (tn.Transfer() == nil || len(tn.Transfer().PriorU) == 0) {
			t.Fatalf("seed %d: warm session has no transfer prior: %+v", seed, tn.Transfer())
		}
		res, err := drive(tn)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]warmPriorTrial, len(res.Records))
		for i, r := range res.Records {
			out[i] = warmPriorTrial{Config: r.Config.Fingerprint(), Throughput: r.Result.Throughput, Failed: r.Result.Failed}
		}
		return out
	}
	ctx := context.Background()
	seq := func(tn *Tuner) (TuneResult, error) { return tn.Run(ctx) }
	batch := func(tn *Tuner) (TuneResult, error) { return tn.RunBatch(ctx, 3) }
	run(3, 12, false, seq)
	run(4, 12, false, seq)
	return warmPriorFixture{
		Run:   run(21, 40, true, seq),
		Batch: run(22, 15, true, batch),
	}
}

// TestWarmPriorSessionsMatchFixture pins warm-started sessions with a
// transfer prior to the trials recorded in
// testdata/warm_prior_records.json by the implementation that still
// evaluated the prior inside every GP: where the prior mean is
// evaluated must never change a proposal or a measurement.
//
// The fixture was recorded on amd64 and holds only there: Go may fuse
// x*y+z into one rounding on other architectures (arm64, ppc64le,
// s390x), which moves the kernel and Cholesky arithmetic by an ulp and
// so the proposals. TestCachedMatchesDenseRebuild and
// TestBlockedScoringMatchesScalarOracle in internal/bo, both run with a
// prior mean, are the portable guards of the same property.
func TestWarmPriorSessionsMatchFixture(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "warm_prior_records.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want warmPriorFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := warmPriorSessions(t)
	for _, c := range []struct {
		name      string
		got, want []warmPriorTrial
	}{{"run", got.Run, want.Run}, {"batch", got.Batch, want.Batch}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d trials, fixture has %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s: trial %d = %+v, fixture %+v", c.name, i+1, c.got[i], c.want[i])
			}
		}
	}
}
