package stormtune

import (
	"context"
	"testing"
)

// warmPriorTrial is one trial of the warm-prior fixture: the proposed
// configuration's fingerprint, the bits of the acquisition values
// behind it (the candidate grid's best and local search's end, NaN for
// the initial design) and what the simulator measured for it.
type warmPriorTrial struct {
	Config     uint64  `json:"config"`
	GridBits   uint64  `json:"gridBits"`
	AcqBits    uint64  `json:"acqBits"`
	Throughput float64 `json:"throughput"`
	Failed     bool    `json:"failed"`
}

// warmPriorSession is one session of the warm-prior fixture: its
// trials and refit epochs.
type warmPriorSession struct {
	Trials []warmPriorTrial `json:"trials"`
	Epochs []hyperEpoch     `json:"epochs"`
}

// warmPriorFixture is testdata/warm_prior_records.json: two
// warm-started sessions with the archived-runs prior switched on.
type warmPriorFixture struct {
	Run   warmPriorSession `json:"run"`
	Batch warmPriorSession `json:"batch"`
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
	run := func(seed int64, steps int, warm bool, drive func(*Tuner) (TuneResult, error)) warmPriorSession {
		rec := &askRecorder{}
		opts := fastTunerOpts(seed, steps)
		opts.Observer = rec
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
		rec.attach(t, tn)
		res, err := drive(tn)
		if err != nil {
			t.Fatal(err)
		}
		out := warmPriorSession{Trials: make([]warmPriorTrial, len(res.Records)), Epochs: rec.epochs}
		for i, r := range res.Records {
			sc := rec.score(t, r.Step)
			out.Trials[i] = warmPriorTrial{
				Config: r.Config.Fingerprint(), GridBits: sc.grid, AcqBits: sc.search,
				Throughput: r.Result.Throughput, Failed: r.Result.Failed,
			}
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
// transfer prior to testdata/warm_prior_records.json: each trial's
// configuration, measurement and best acquisition value, and each
// refit epoch's hyperparameter samples, bit for bit. Where the prior
// mean is evaluated, and how the GP arithmetic is computed, must never
// change a proposal or the posterior behind it.
//
// The fixture holds in full only where it was recorded (fixtureBits). TestCachedMatchesDenseRebuild and
// TestBlockedScoringMatchesScalarOracle in internal/bo, both run with a
// prior mean, are the portable guards of the same property.
func TestWarmPriorSessionsMatchFixture(t *testing.T) {
	bits := fixtureBits(t)
	const file = "warm_prior_records.json"
	got := warmPriorSessions(t)
	if *updateFixtures {
		writeFixture(t, file, got)
		return
	}
	var want warmPriorFixture
	decodeFixture(t, file, &want)
	for _, c := range []struct {
		name      string
		got, want warmPriorSession
	}{{"run", got.Run, want.Run}, {"batch", got.Batch, want.Batch}} {
		if len(c.got.Trials) != len(c.want.Trials) {
			t.Fatalf("%s: %d trials, fixture has %d", c.name, len(c.got.Trials), len(c.want.Trials))
		}
		for i, g := range c.got.Trials {
			w := c.want.Trials[i]
			if !bits {
				g.GridBits, g.AcqBits = w.GridBits, w.AcqBits
			}
			if g != w {
				t.Fatalf("%s: trial %d = %+v, fixture %+v", c.name, i+1, c.got.Trials[i], w)
			}
		}
		checkEpochs(t, c.name, bits, c.got.Epochs, c.want.Epochs)
	}
}
