package stormtune

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"stormtune/internal/core"
	"stormtune/internal/linalg"
)

// updateFixtures rewrites the session fixtures in testdata from this
// build instead of comparing against them: go test -run
// 'ColdSessions|WarmPrior' -update-fixtures . (not under -short, which
// skips the 120-step session). That drops the cold fixture's portable
// throughputs; record them again with GODEBUG=cpu.fma=off go test -run
// ColdSessions -update-fixtures ., which fills in only the measurements
// that differ off math.Exp's FMA branch.
var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata's session fixtures from this build")

// coldTrial is one trial of the cold-session fixture: its step, the
// proposed configuration's fingerprint, the bits of the acquisition
// values behind it (the candidate grid's best and local search's end,
// NaN for the initial design) and the bits of the measured throughput.
// PortableThroughputBits, present only where it differs, is the
// throughput with math.Exp on its portable branch: the simulator's own
// exp then moves a few measurements by one ulp.
type coldTrial struct {
	Step                   int    `json:"step"`
	Config                 uint64 `json:"config"`
	GridBits               uint64 `json:"gridBits"`
	AcqBits                uint64 `json:"acqBits"`
	ThroughputBits         uint64 `json:"throughputBits"`
	PortableThroughputBits uint64 `json:"portableThroughputBits,omitempty"`
}

// hyperEpoch is one refit epoch of a fixture session: the first trial
// proposed under it and its slice samples, each the bits of the
// log-space hyperparameter vector as space-separated 16-digit hex
// words.
type hyperEpoch struct {
	Step   int      `json:"step"`
	Hypers []string `json:"hypers"`
}

// coldSessionRecord is one session of the cold-session fixture.
type coldSessionRecord struct {
	Trials []coldTrial  `json:"trials"`
	Epochs []hyperEpoch `json:"epochs"`
}

// coldSessionFixture is testdata/cold_session_records.json: two cold
// sessions at the library's default optimizer settings.
type coldSessionFixture struct {
	Small60      coldSessionRecord `json:"small60"`
	WholeHistory coldSessionRecord `json:"wholeHistory120"`
}

// askRecorder observes a session of the built-in Bayesian strategy and
// records, as each trial starts, the bits of the acquisition values
// behind it and every refit epoch's hyperparameter samples. Numbers
// this fine move with the last bit of any kernel, solve or
// factorization, where configurations, being discretized, mostly do
// not.
type askRecorder struct {
	bs     *core.BOStrategy
	scores []scoreBits // by trial ID − 1
	epochs []hyperEpoch
}

// attach points r at tn's strategy and turns on its score recording;
// call it before driving tn.
func (r *askRecorder) attach(t *testing.T, tn *Tuner) {
	t.Helper()
	bs, ok := tn.sess.Strategy().(*core.BOStrategy)
	if !ok {
		t.Fatalf("session runs %T, not the built-in Bayesian strategy", tn.sess.Strategy())
	}
	bs.RecordScores()
	r.bs = bs
}

// OnEvent implements Observer. A batch's trials start together, after
// the one NextBatch that chose them all, so the first of them records
// the whole batch's scores.
func (r *askRecorder) OnEvent(e Event) {
	ts, ok := e.(TrialStarted)
	if !ok || r.bs == nil {
		return
	}
	if ts.Trial.ID > len(r.scores) {
		for _, v := range r.bs.LastScores() {
			r.scores = append(r.scores, scoreBits{math.Float64bits(v.Grid), math.Float64bits(v.Search)})
		}
	}
	hs := r.bs.HyperState()
	if hs == nil {
		return
	}
	bits := make([]string, len(hs.Hypers))
	for i, h := range hs.Hypers {
		words := make([]string, len(h))
		for j, v := range h {
			words[j] = fmt.Sprintf("%016x", math.Float64bits(v))
		}
		bits[i] = strings.Join(words, " ")
	}
	if n := len(r.epochs); n == 0 || !slices.Equal(r.epochs[n-1].Hypers, bits) {
		r.epochs = append(r.epochs, hyperEpoch{Step: ts.Trial.ID, Hypers: bits})
	}
}

// scoreBits is the bits of one trial's bo.Score.
type scoreBits struct{ grid, search uint64 }

// score returns the recorded acquisition bits of the trial with the
// given ID.
func (r *askRecorder) score(t *testing.T, id int) scoreBits {
	t.Helper()
	if id < 1 || id > len(r.scores) {
		t.Fatalf("no acquisition score recorded for trial %d (%d recorded)", id, len(r.scores))
	}
	return r.scores[id-1]
}

// coldSession runs one cold session of the small topology on the paper
// cluster's in-process simulator, every optimizer knob at its default:
// the full candidate grid, so the acquisition scan's sixteen-wide
// blocks, the four-lane local search and the whole-history GP are all
// on the path.
func coldSession(t *testing.T, seed int64, steps int) coldSessionRecord {
	t.Helper()
	top := BuildSynthetic("small", Condition{}, 1)
	spec := PaperCluster()
	tmpl := DefaultSyntheticConfig(top, 1)
	rec := &askRecorder{}
	opts := TunerOptions{Steps: steps, Seed: seed, Cluster: &spec, Template: &tmpl, Observer: rec}
	tn, err := NewTuner(top, AsBackend(NewFluidSim(top, spec, SinkTuples, 1)), opts)
	if err != nil {
		t.Fatal(err)
	}
	rec.attach(t, tn)
	res, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := coldSessionRecord{Trials: make([]coldTrial, len(res.Records)), Epochs: rec.epochs}
	for i, r := range res.Records {
		sc := rec.score(t, r.Step)
		out.Trials[i] = coldTrial{
			Step: r.Step, Config: r.Config.Fingerprint(), GridBits: sc.grid, AcqBits: sc.search,
			ThroughputBits: math.Float64bits(r.Result.Throughput),
		}
	}
	return out
}

// expProbe is an argument where math.Exp's FMA and portable branches
// round differently; expProbeFMA is its result on the FMA branch.
var expProbe, expProbeFMA = -0.2, uint64(0x3fea330ad6166159)

// fixtureBits reports whether this host reproduces the fixtures'
// posterior bits, and skips the test where it cannot hold at all. The
// fixtures were recorded on amd64, where Go never fuses a multiply and
// an add, with math.Exp on its FMA branch. Another GOARCH may fuse and
// move the kernel and Cholesky arithmetic, and so the proposals, by an
// ulp. Without FMA (or with GODEBUG=cpu.fma=off) math.Exp rounds
// differently on about one argument in eleven: every acquisition and
// hyper-sample bit moves, so only the configurations and measurements
// are compared there.
func fixtureBits(t *testing.T) bool {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if math.Float64bits(math.Exp(expProbe)) != expProbeFMA {
		t.Log("math.Exp is off its FMA branch on this host or under GODEBUG: " +
			"comparing configurations and measurements only, not acquisition or hyper-sample bits")
		return false
	}
	return true
}

// checkEpochs compares a session's refit epochs with the fixture's
// where this host reproduces them (fixtureBits).
func checkEpochs(t *testing.T, name string, bits bool, got, want []hyperEpoch) {
	t.Helper()
	if !bits {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d refit epochs, fixture has %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Step != want[i].Step || !slices.Equal(got[i].Hypers, want[i].Hypers) {
			t.Fatalf("%s: refit epoch %d = %+v, fixture %+v", name, i+1, got[i], want[i])
		}
	}
}

// decodeFixture decodes testdata/name into v.
func decodeFixture(t *testing.T, name string, v any) {
	t.Helper()
	if err := json.Unmarshal(readFixture(t, name), v); err != nil {
		t.Fatal(err)
	}
}

// writeFixture rewrites testdata/name with v (-update-fixtures).
func writeFixture(t *testing.T, name string, v any) {
	t.Helper()
	if testing.Short() {
		t.Fatal("-update-fixtures needs the full sessions; drop -short")
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote testdata/%s", name)
}

// recordPortable stores in want the throughputs of got, a session run
// with math.Exp off its FMA branch, that differ from the recorded ones.
// The configurations must all match.
func recordPortable(t *testing.T, name string, got coldSessionRecord, want *coldSessionRecord) {
	t.Helper()
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("%s: %d trials, fixture has %d", name, len(got.Trials), len(want.Trials))
	}
	for i, g := range got.Trials {
		w := &want.Trials[i]
		if g.Step != w.Step || g.Config != w.Config {
			t.Fatalf("%s: trial %d = %+v, fixture %+v", name, i+1, g, *w)
		}
		w.PortableThroughputBits = 0
		if g.ThroughputBits != w.ThroughputBits {
			w.PortableThroughputBits = g.ThroughputBits
		}
	}
}

// TestColdSessionsMatchFixture pins two cold sessions to
// testdata/cold_session_records.json: a 60-step session (paper-seq's
// procedure, seed 3) and a 120-step whole-history session
// (long-history's, seed 5; skipped under -short). Each trial's
// configuration, measured throughput and best acquisition value, and
// each refit epoch's hyperparameter samples, must match bit for bit:
// how a kernel row, a triangular solve, a factorization or a lane sum
// is computed must never change a proposal or the posterior behind it:
// the 60-step session runs a second time with linalg's vector kernels
// off, on the portable loops.
//
// Like TestWarmPriorSessionsMatchFixture, the fixture holds in full
// only where it was recorded (fixtureBits). With math.Exp off its FMA
// branch a measurement may instead match its PortableThroughputBits.
func TestColdSessionsMatchFixture(t *testing.T) {
	bits := fixtureBits(t)
	const file = "cold_session_records.json"
	if *updateFixtures && bits {
		writeFixture(t, file, coldSessionFixture{Small60: coldSession(t, 3, 60), WholeHistory: coldSession(t, 5, 120)})
		return
	}
	var want coldSessionFixture
	decodeFixture(t, file, &want)
	if *updateFixtures && !bits {
		recordPortable(t, "small60", coldSession(t, 3, 60), &want.Small60)
		recordPortable(t, "wholeHistory120", coldSession(t, 5, 120), &want.WholeHistory)
		writeFixture(t, file, want)
		return
	}
	check := func(name string, got, want coldSessionRecord) {
		t.Helper()
		if len(got.Trials) != len(want.Trials) {
			t.Fatalf("%s: %d trials, fixture has %d", name, len(got.Trials), len(want.Trials))
		}
		for i, g := range got.Trials {
			w := want.Trials[i]
			if !bits {
				g.GridBits, g.AcqBits = w.GridBits, w.AcqBits
				if w.PortableThroughputBits != 0 && g.ThroughputBits == w.PortableThroughputBits {
					g.ThroughputBits = w.ThroughputBits
				}
			}
			g.PortableThroughputBits = w.PortableThroughputBits
			if g != w {
				t.Fatalf("%s: trial %d = %+v, fixture %+v", name, i+1, got.Trials[i], w)
			}
		}
		checkEpochs(t, name, bits, got.Epochs, want.Epochs)
	}
	check("small60", coldSession(t, 3, 60), want.Small60)
	if linalg.SetVectorSolve(false) {
		func() {
			defer linalg.SetVectorSolve(true)
			check("small60/vector-solve-off", coldSession(t, 3, 60), want.Small60)
		}()
	} else {
		t.Log("vector kernels are off on this host: the portable paths ran above")
	}
	if testing.Short() {
		t.Log("skipping the 120-step whole-history session under -short")
		return
	}
	check("wholeHistory120", coldSession(t, 5, 120), want.WholeHistory)
}
