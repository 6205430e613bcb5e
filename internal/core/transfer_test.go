package core

import (
	"reflect"
	"testing"
	"time"

	"stormtune/internal/archive"
	"stormtune/internal/cluster"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// archiveDonor runs a cold tuning pass and archives it under key,
// returning the pass result.
func archiveDonor(t *testing.T, store archive.Store, key string, seed int64, steps int) TuneResult {
	t.Helper()
	tp := testTopo()
	f := testEval(tp)
	res := runPass(t, f, newTestBO(seed), steps, 1, 0)
	rec, err := NewArchiveRecorder(store, SessionMetaFor(key, tp, cluster.Small(), "bo", Hints, seed))
	if err != nil {
		t.Fatal(err)
	}
	rec.Backfill(recordsState(res.Records))
	if err := rec.Seal(nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// recordsState wraps a pass's records as the session snapshot Backfill
// reads.
func recordsState(recs []RunRecord) *SessionState {
	st := &SessionState{}
	for _, r := range recs {
		st.Records = append(st.Records, RecordState{Step: r.Step, Config: r.Config, Result: r.Result})
	}
	return st
}

func TestArchiveRecorderObservesAndSeals(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	store := archive.NewMem()
	meta := SessionMetaFor("live-1", tp, cluster.Small(), "bo", Hints, 5)
	rec, err := NewArchiveRecorder(store, meta)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(newTestBO(5), AsBackend(f), SessionOptions{MaxSteps: 6, Observer: rec})
	res, err := sess.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Seal(sess.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get("live-1")
	if !ok || !got.Sealed || len(got.State) == 0 {
		t.Fatalf("sealed record missing: ok=%v sealed=%v state=%d bytes", ok, got.Sealed, len(got.State))
	}
	if len(got.Trials) != len(res.Records) {
		t.Fatalf("archived %d trials, session ran %d", len(got.Trials), len(res.Records))
	}
	for i, tr := range got.Trials {
		r := res.Records[i]
		if tr.Step != r.Step || tr.Config.Fingerprint() != r.Config.Fingerprint() {
			t.Fatalf("trial %d diverges from session record", i)
		}
	}
	// Backfilling the already-archived records must not double-append.
	rec2, err := NewArchiveRecorder(store, meta)
	if err != nil {
		t.Fatal(err)
	}
	rec2.Backfill(recordsState(res.Records))
	if again, _ := store.Get("live-1"); len(again.Trials) != len(got.Trials) {
		t.Fatalf("backfill after resume double-appended: %d -> %d", len(got.Trials), len(again.Trials))
	}
}

func TestComputeTransferWarmStartsDeterministic(t *testing.T) {
	store := archive.NewMem()
	donor := archiveDonor(t, store, "donor-1", 21, 12)
	donorBest, _ := donor.Best()

	tp := testTopo()
	meta := SessionMetaFor("self-1", tp, cluster.Small(), "bo", Hints, 22)
	build := func() *BOStrategy {
		o := fastBOOpts()
		o.Seed = 22
		return NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), o)
	}
	s := build()
	seed := ComputeTransfer(s, store, meta, WarmStartOptions{Enabled: true, Prior: true})
	if seed == nil {
		t.Fatal("exact-fingerprint donor must produce a transfer seed")
	}
	if !seed.Exact || seed.Donor != "donor-1" || seed.Similarity != 1 {
		t.Fatalf("seed identity = %+v", seed)
	}
	if len(seed.Points) == 0 || len(seed.Points) > s.opt.Opts.InitialDesign {
		t.Fatalf("warm points = %d, design = %d", len(seed.Points), s.opt.Opts.InitialDesign)
	}
	if want := s.Encode(donorBest.Config); !reflect.DeepEqual(seed.Points[0], want) {
		t.Fatalf("first warm point should be the donor incumbent: %v vs %v", seed.Points[0], want)
	}
	if len(seed.PriorU) == 0 || len(seed.PriorU) != len(seed.PriorZ) || len(seed.PriorU) != len(seed.PriorW) {
		t.Fatalf("prior training set inconsistent: %d/%d/%d", len(seed.PriorU), len(seed.PriorZ), len(seed.PriorW))
	}

	// Bit-identical determinism: the same seed applied to two freshly
	// built strategies replays the identical warm-started run.
	f := testEval(tp)
	run := func() TuneResult {
		s := build()
		s.ApplyTransfer(seed)
		if s.opt.Opts.PriorMean == nil {
			t.Fatal("ApplyTransfer should install the prior mean")
		}
		return runPass(t, f, s, 10, 1, 0)
	}
	sameRecords(t, run().Records, run().Records)
}

// TestWarmStartHalvesTrialsToIncumbent pins the ISSUE acceptance bound:
// on a same-fingerprint re-tune, the warm-started session reaches the
// cold run's final incumbent within half the cold run's trials (the
// donor incumbent is re-proposed first, so one trial suffices on the
// noise-free simulator).
func TestWarmStartHalvesTrialsToIncumbent(t *testing.T) {
	store := archive.NewMem()
	cold := archiveDonor(t, store, "cold-run", 31, 14)
	coldBest, ok := cold.Best()
	if !ok {
		t.Fatal("cold run found no incumbent")
	}

	tp := testTopo()
	f := testEval(tp)
	o := fastBOOpts()
	o.Seed = 32
	warmStrat := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), o)
	seed := ComputeTransfer(warmStrat, store, SessionMetaFor("warm-run", tp, cluster.Small(), "bo", Hints, 32), WarmStartOptions{Enabled: true})
	if seed == nil {
		t.Fatal("same-fingerprint donor must warm-start")
	}
	warmStrat.ApplyTransfer(seed)
	warm := runPass(t, f, warmStrat, 7, 1, 0)
	reached := -1
	for _, r := range warm.Records {
		if !r.Result.Failed && r.Result.Throughput >= coldBest.Result.Throughput {
			reached = r.Step
			break
		}
	}
	if reached < 0 || reached > 7 {
		wb, _ := warm.Best()
		t.Fatalf("warm run did not reach cold incumbent %.1f within half the trials (best %.1f)",
			coldBest.Result.Throughput, wb.Result.Throughput)
	}
}

func TestNegativeTransferGuard(t *testing.T) {
	store := archive.NewMem()
	archiveDonor(t, store, "donor-1", 41, 10)

	// A deep chain shares nothing structural with the diamond donor:
	// similarity falls below the guard and transfer must not engage.
	nodes := []topo.Node{{Name: "s0", Kind: topo.Spout, TimeUnits: 5, Selectivity: 1, TupleBytes: 50}}
	var edges []topo.Edge
	for i := 1; i < 12; i++ {
		nodes = append(nodes, topo.Node{Name: string(rune('a' + i)), Kind: topo.Bolt, TimeUnits: 5, Selectivity: 1, TupleBytes: 50})
		edges = append(edges, topo.Edge{From: i - 1, To: i})
	}
	chain := topo.MustNew("chain12", nodes, edges)
	meta := SessionMetaFor("chain-run", chain, cluster.Small(), "bo", Hints, 1)

	donorMeta := SessionMetaFor("x", testTopo(), cluster.Small(), "bo", Hints, 1)
	if sim := archive.Similarity(meta.Features, donorMeta.Features); sim >= 0.35 {
		t.Fatalf("test premise broken: similarity %.3f not below guard", sim)
	}

	o := fastBOOpts()
	o.Seed = 42
	s := NewBO(chain, cluster.Small(), storm.DefaultSyntheticConfig(chain, 1), o)
	if seed := ComputeTransfer(s, store, meta, WarmStartOptions{Enabled: true, Prior: true}); seed != nil {
		t.Fatalf("dissimilar topology must not transfer, got donor %q sim %.3f", seed.Donor, seed.Similarity)
	}
}

func TestComputeTransferSkipsOwnKeyAndOtherParamSets(t *testing.T) {
	store := archive.NewMem()
	res := archiveDonor(t, store, "self-1", 51, 8)

	tp := testTopo()
	meta := SessionMetaFor("self-1", tp, cluster.Small(), "bo", Hints, 51)
	o := fastBOOpts()
	o.Seed = 51
	s := NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), o)
	if seed := ComputeTransfer(s, store, meta, WarmStartOptions{Enabled: true}); seed != nil {
		t.Fatalf("a session must not be its own donor, got %q", seed.Donor)
	}

	// A donor tuned over a different parameter set lives in a different
	// space and must be skipped even on an exact fingerprint match.
	rec, err := NewArchiveRecorder(store, SessionMetaFor("batchcc-1", tp, cluster.Small(), "bo.bs-bp-cc", BatchCC, 7))
	if err != nil {
		t.Fatal(err)
	}
	rec.Backfill(recordsState(res.Records))
	meta2 := SessionMetaFor("hints-2", tp, cluster.Small(), "bo", Hints, 52)
	seed := ComputeTransfer(s, store, meta2, WarmStartOptions{Enabled: true})
	if seed == nil || seed.Donor != "self-1" {
		t.Fatalf("expected the Hints donor, got %+v", seed)
	}
}

// TestFleetIncumbentSharing pins the cross-member mechanism: member
// A's NewBest re-ranks member B's warm-start pool — B's optimizer
// receives A's incumbent as a shared seed and proposes it next. Sharing
// never takes a sibling's session lock: B installs the pool at the
// start of its next ask.
func TestFleetIncumbentSharing(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	mk := func(seed int64) *Session {
		o := fastBOOpts()
		o.Seed = seed
		return NewSession(NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), o),
			AsBackend(f), SessionOptions{MaxSteps: 12})
	}
	a, b := mk(61), mk(62)
	fl, err := NewFleet(FleetOptions{Slots: 2, ShareIncumbents: true},
		FleetMember{Name: "A", Session: a}, FleetMember{Name: "B", Session: b})
	if err != nil {
		t.Fatal(err)
	}

	// Drive member A by hand to a successful trial, then fire the
	// report-boundary hook the scheduler loop would fire.
	ctx := t.Context()
	succeeded := false
	for i := 0; i < 8 && !succeeded; i++ {
		trials, err := a.Propose(ctx, 1)
		if err != nil || len(trials) == 0 {
			t.Fatalf("propose: %v (%d trials)", err, len(trials))
		}
		resA := f.Run(trials[0].Config, trials[0].RunIndex)
		if err := a.Report(trials[0], resA); err != nil {
			t.Fatal(err)
		}
		succeeded = !resA.Failed
	}
	if !succeeded {
		t.Fatal("no successful trial for member A")
	}
	// Share A's incumbent while B's session lock is held, as it is
	// during B's ask: the report-boundary hook must not wait for it.
	held, release := make(chan struct{}), make(chan struct{})
	go b.UpdateStrategy(func(Strategy) { close(held); <-release })
	<-held
	shared := make(chan struct{})
	go func() { fl.shareIncumbent(0); close(shared) }()
	select {
	case <-shared:
	case <-time.After(5 * time.Second):
		t.Error("shareIncumbent waited 5 s for the sibling's session lock")
	}
	close(release)
	<-shared
	fl.installShared(1) // what B's next ask does first

	pool := fl.SharedPool("B")
	if len(pool) != 1 {
		t.Fatalf("B's pool should hold A's incumbent, got %d entries", len(pool))
	}
	var aBest storm.Config
	a.UpdateStrategy(func(st Strategy) { aBest, _ = st.(*BOStrategy).BestConfig() })
	if pool[0].Fingerprint() != aBest.Fingerprint() {
		t.Fatal("pool entry is not A's incumbent")
	}
	var wantU, gotU []float64
	b.UpdateStrategy(func(st Strategy) {
		bs := st.(*BOStrategy)
		if len(bs.opt.Opts.SharedSeeds) != 1 {
			t.Fatalf("B's optimizer holds %d shared seeds", len(bs.opt.Opts.SharedSeeds))
		}
		wantU = bs.Encode(aBest)
		gotU = bs.opt.Opts.SharedSeeds[0]
	})
	if !reflect.DeepEqual(gotU, wantU) {
		t.Fatalf("B's shared seed %v != encoded A incumbent %v", gotU, wantU)
	}
	// B's next proposal adopts the shared incumbent (it leads B's
	// unissued initial design).
	tb, err := b.Propose(ctx, 1)
	if err != nil || len(tb) == 0 {
		t.Fatalf("B propose: %v", err)
	}
	if tb[0].Config.Fingerprint() != aBest.Fingerprint() {
		t.Fatalf("B's next trial should be A's incumbent")
	}

	// A pool is ranked: when B later reports a better incumbent, A's
	// pool re-ranks with B first.
	if err := b.Report(tb[0], f.Run(tb[0].Config, tb[0].RunIndex)); err != nil {
		t.Fatal(err)
	}
	fl.shareIncumbent(1)
	if poolA := fl.SharedPool("A"); len(poolA) != 1 {
		t.Fatalf("A's pool should now hold B's incumbent, got %d", len(poolA))
	}
}

// TestFleetShareIncumbentsRuns smoke-tests a full concurrent fleet run
// with sharing enabled: no deadlock between the fleet's UpdateStrategy
// calls and the drivers, and results for every member.
func TestFleetShareIncumbentsRuns(t *testing.T) {
	tp := testTopo()
	f := testEval(tp)
	mk := func(seed int64) *Session {
		o := fastBOOpts()
		o.Seed = seed
		return NewSession(NewBO(tp, cluster.Small(), storm.DefaultSyntheticConfig(tp, 1), o),
			AsBackend(f), SessionOptions{MaxSteps: 6})
	}
	// Uncapped members ask on the scheduler loop, one-trial members in
	// their slots.
	for _, maxInFlight := range []int{0, 1} {
		fl, err := NewFleet(FleetOptions{Slots: 2, ShareIncumbents: true},
			FleetMember{Name: "A", Session: mk(71), MaxInFlight: maxInFlight},
			FleetMember{Name: "B", Session: mk(72), MaxInFlight: maxInFlight})
		if err != nil {
			t.Fatal(err)
		}
		results, err := fl.Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"A", "B"} {
			res, ok := results[name]
			if !ok || len(res.Records) != 6 {
				t.Fatalf("MaxInFlight %d, member %s: ok=%v records=%d", maxInFlight, name, ok, len(res.Records))
			}
		}
	}
}
