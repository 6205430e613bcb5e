package stormtune

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"
)

// TestTunerArchivesAndWarmStarts covers the public archive loop: a
// cold run records and seals its evidence, and a second tuner over the
// same archive warm-starts from it — visible in Transfer(), in the
// recorder snapshot the dashboard serves, and in the archived donor.
func TestTunerArchivesAndWarmStarts(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	arch := NewMemArchive()

	opts := fastTunerOpts(3, 10)
	opts.Cluster = ptrCluster(SmallCluster())
	opts.Archive = arch
	opts.WarmStart = WarmStartOptions{Enabled: true, Prior: true}

	cold, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Transfer() != nil {
		t.Fatal("first run over an empty archive must start cold")
	}
	coldRes, err := cold.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := arch.Get(cold.ArchiveKey())
	if !ok {
		t.Fatalf("archive has no record under %q", cold.ArchiveKey())
	}
	if !rec.Sealed {
		t.Fatal("a cleanly finished run must seal its archive record")
	}
	if len(rec.Trials) != len(coldRes.Records) {
		t.Fatalf("archived %d trials, session ran %d", len(rec.Trials), len(coldRes.Records))
	}

	opts2 := fastTunerOpts(4, 10)
	opts2.Cluster = ptrCluster(SmallCluster())
	opts2.Archive = arch
	opts2.WarmStart = WarmStartOptions{Enabled: true, Prior: true}
	opts2.Recorder = NewRecorder()
	warm, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), opts2)
	if err != nil {
		t.Fatal(err)
	}
	ts := warm.Transfer()
	if ts == nil {
		t.Fatal("same-fingerprint re-tune must warm-start")
	}
	if !ts.Exact || ts.Donor != cold.ArchiveKey() {
		t.Fatalf("transfer = %+v, want exact match on the cold run's key", ts)
	}
	// The dashboard state (dash.State embeds the recorder snapshot)
	// reports the warm start and its donor.
	snap := opts2.Recorder.Snapshot()
	if !snap.WarmStarted || snap.WarmDonor != cold.ArchiveKey() || snap.WarmSimilarity != ts.Similarity {
		t.Fatalf("recorder snapshot warm fields = %+v, want donor %q", snap, cold.ArchiveKey())
	}
	if _, err := warm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if warm.ArchiveKey() == cold.ArchiveKey() {
		t.Fatal("a fresh run must archive under a fresh key")
	}
}

// TestTunerArchiveResumeNoDoubleAppend: snapshot/resume with -archive
// enabled must not double-append the pre-snapshot records — the
// resumed session backfills only the steps the archive does not
// already hold, and the finished archive holds each step exactly once.
func TestTunerArchiveResumeNoDoubleAppend(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	arch := NewMemArchive()
	const steps = 12

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	opts := fastTunerOpts(7, steps)
	opts.Cluster = ptrCluster(SmallCluster())
	opts.Archive = arch
	opts.Observer = ObserverFunc(func(e Event) {
		if _, ok := e.(TrialCompleted); ok {
			if n++; n == 5 {
				cancel()
			}
		}
	})
	half, err := NewTuner(top, AsBackend(quietEval(top, SmallCluster())), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := half.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	key := half.ArchiveKey()
	rec, ok := arch.Get(key)
	if !ok {
		t.Fatal("interrupted run left no archive record")
	}
	if rec.Sealed {
		t.Fatal("a cancelled run must leave its record unsealed for re-attach")
	}
	preSnapshot := len(rec.Trials)
	if preSnapshot == 0 {
		t.Fatal("test premise broken: no trials archived before the snapshot")
	}

	var buf bytes.Buffer
	if err := half.Snapshot().Save(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := LoadTunerState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.ArchiveKey != key {
		t.Fatalf("snapshot archive key %q, want %q", st.ArchiveKey, key)
	}
	resumed, err := ResumeTuner(st, top, AsBackend(quietEval(top, SmallCluster())),
		TunerOptions{Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ArchiveKey() != key {
		t.Fatalf("resumed under key %q, want the original %q", resumed.ArchiveKey(), key)
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rec, _ = arch.Get(key)
	if !rec.Sealed {
		t.Fatal("the resumed run finished cleanly and must seal")
	}
	if len(rec.Trials) != len(res.Records) {
		t.Fatalf("archive holds %d trials, session ran %d (pre-snapshot records double-appended?)",
			len(rec.Trials), len(res.Records))
	}
	stepsSeen := make([]int, len(rec.Trials))
	for i, tr := range rec.Trials {
		stepsSeen[i] = tr.Step
	}
	sort.Ints(stepsSeen)
	for i, s := range stepsSeen {
		if s != i+1 {
			t.Fatalf("archived steps %v, want exactly 1..%d once each", stepsSeen, len(res.Records))
		}
	}
}

// TestWatcherArchivesTrials: a watch with an archive records its
// completed trials (initial tune included) under a "watch" key and
// seals on a clean horizon finish.
func TestWatcherArchivesTrials(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	arch := NewMemArchive()
	ev := quietEval(top, SmallCluster())
	template := DefaultSyntheticConfig(top, 1)
	opts := WatchOptions{
		WatchPlan: WatchPlan{Steps: 6, TrialCost: 60, HoldInterval: 60, Horizon: 2000},
		Seed:      1, Template: &template,
		OptimizerOptions: OptimizerOptions{Candidates: 120, HyperSamples: 2, LocalSearchIters: 4},
		Archive:          arch,
	}
	w, err := NewWatcher(top, AsBackend(ev), opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.ArchiveKey() == "" {
		t.Fatal("watcher with an archive must derive a key")
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, ok := arch.Get(w.ArchiveKey())
	if !ok {
		t.Fatalf("no archive record under %q", w.ArchiveKey())
	}
	if len(rec.Trials) < opts.Steps {
		t.Fatalf("archived %d trials, want at least the %d-step initial tune", len(rec.Trials), opts.Steps)
	}
	if !rec.Sealed {
		t.Fatal("a watch that reached its horizon must seal its record")
	}
	if rec.Meta.Strategy != "watch" {
		t.Fatalf("archived strategy %q, want \"watch\"", rec.Meta.Strategy)
	}
}

// TestWatcherArchiveResumeNoDoubleAppend: a watch snapshotted mid-tune,
// run on past the snapshot and cancelled, then resumed from that
// snapshot over the same archive re-runs the trials completed after the
// snapshot. The archive must keep one copy of each: the resumed watch
// leaves exactly the record an uninterrupted watch writes.
func TestWatcherArchiveResumeNoDoubleAppend(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	template := DefaultSyntheticConfig(top, 1)
	opts := func(arch Archive) WatchOptions {
		return WatchOptions{
			WatchPlan: WatchPlan{Steps: 6, TrialCost: 60, HoldInterval: 60, Horizon: 2000},
			Seed:      1, Template: &template,
			OptimizerOptions: OptimizerOptions{Candidates: 120, HyperSamples: 2, LocalSearchIters: 4},
			Archive:          arch,
		}
	}
	backend := func() Backend { return AsBackend(quietEval(top, SmallCluster())) }

	fullArch := NewMemArchive()
	full, err := NewWatcher(top, backend(), opts(fullArch))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, _ := fullArch.Get(full.ArchiveKey())

	arch := NewMemArchive()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *WatchState
	var w *Watcher
	n := 0
	o := opts(arch)
	o.Observer = ObserverFunc(func(e Event) {
		if _, ok := e.(TrialCompleted); !ok {
			return
		}
		switch n++; n {
		case 3:
			snap = w.Snapshot()
		case 5:
			cancel()
		}
	})
	if w, err = NewWatcher(top, backend(), o); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if snap == nil {
		t.Fatal("test premise broken: no snapshot at the 3rd completed trial")
	}
	resumed, err := ResumeWatcher(snap, top, backend(), WatchOptions{Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	got, ok := arch.Get(resumed.ArchiveKey())
	if !ok || !got.Sealed {
		t.Fatalf("resumed watch left record %q sealed=%v, want a sealed record", resumed.ArchiveKey(), got.Sealed)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("archive holds %d trials, an uninterrupted watch archives %d (trials re-run after resume appended twice?)",
			len(got.Trials), len(want.Trials))
	}
	byStep := make(map[int]ArchiveTrial, len(got.Trials))
	for _, tr := range got.Trials {
		if _, dup := byStep[tr.Step]; dup {
			t.Fatalf("step %d archived twice", tr.Step)
		}
		byStep[tr.Step] = tr
	}
	for i, wt := range want.Trials {
		if wt.Step != i+1 {
			t.Fatalf("uninterrupted watch archived step %d at position %d, want steps 1..%d", wt.Step, i, len(want.Trials))
		}
		gt, ok := byStep[wt.Step]
		if !ok {
			t.Fatalf("resumed watch archived no step %d", wt.Step)
		}
		if gt.Config.Fingerprint() != wt.Config.Fingerprint() || gt.Y != wt.Y || gt.Failed != wt.Failed {
			t.Fatalf("step %d: resumed archive holds %+v, uninterrupted %+v", wt.Step, gt, wt)
		}
	}
}
