package stormtune_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"stormtune"
)

// startWorker spins up a live multi-tenant worker serving the given
// topologies, the way `stormtune serve -topology a,b` does.
func startWorker(t *testing.T, opts stormtune.BackendServerOptions, tops ...*stormtune.Topology) *httptest.Server {
	t.Helper()
	server := stormtune.NewBackendServer(opts)
	for _, top := range tops {
		ev := stormtune.NewFluidSim(top, stormtune.SmallCluster(), stormtune.SinkTuples, 1)
		if err := stormtune.RegisterTopology(server, top, stormtune.AsBackend(ev), stormtune.SinkTuples); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(server.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func remoteTestSetup(t *testing.T, flaky int) (*stormtune.Topology, *stormtune.RemoteBackend) {
	t.Helper()
	top := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	srv := startWorker(t, stormtune.BackendServerOptions{FailEveryN: flaky}, top)
	return top, stormtune.NewRemoteBackend(srv.URL, stormtune.RemoteBackendOptions{})
}

func quietTunerOpts(steps int) stormtune.TunerOptions {
	spec := stormtune.SmallCluster()
	return stormtune.TunerOptions{
		Steps: steps, Seed: 11, Cluster: &spec,
		OptimizerOptions: stormtune.OptimizerOptions{Candidates: 150, HyperSamples: 2, LocalSearchIters: 4},
	}
}

// TestPublicRemoteTuningEndToEnd drives the whole public surface: a
// topology tuned through RemoteBackend against a live local evaluation
// server with injected faults, the RetryPolicy absorbing a killed
// trial (TrialFailed/TrialRetried observed), a snapshot taken mid-run,
// and a resume in a "fresh process" that finishes bit-identically to
// an uninterrupted run against the local simulator.
func TestPublicRemoteTuningEndToEnd(t *testing.T) {
	const steps = 12
	top, bk := remoteTestSetup(t, 5)

	if _, err := stormtune.CheckRemoteBackend(context.Background(), bk, top, stormtune.SinkTuples); err != nil {
		t.Fatal(err)
	}

	// Reference: same options, uninterrupted, local backend.
	local := stormtune.AsBackend(stormtune.NewFluidSim(top, stormtune.SmallCluster(), stormtune.SinkTuples, 1))
	ref, err := stormtune.NewTuner(top, local, quietTunerOpts(steps))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Remote phase 1: tune over the wire until half the budget is
	// spent, then snapshot and cancel.
	var mu sync.Mutex
	var failed, retried, completed int
	var snap *stormtune.TunerState
	ctx, cancel := context.WithCancel(context.Background())
	var tn *stormtune.Tuner
	opts := quietTunerOpts(steps)
	opts.Retry = stormtune.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond}
	opts.Observer = stormtune.ObserverFunc(func(e stormtune.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.(type) {
		case stormtune.TrialFailed:
			failed++
		case stormtune.TrialRetried:
			retried++
		case stormtune.TrialCompleted:
			completed++
			if completed == steps/2 {
				snap = tn.Snapshot()
				cancel()
			}
		}
	})
	tn, err = stormtune.NewTuner(top, bk, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	if snap == nil {
		t.Fatal("snapshot never taken")
	}
	if failed == 0 || retried == 0 {
		t.Fatalf("injected faults unobserved: failed=%d retried=%d", failed, retried)
	}
	if snap.Session.Retry.MaxAttempts != 4 {
		t.Fatalf("snapshot lost the retry policy: %+v", snap.Session.Retry)
	}

	// Remote phase 2: a fresh client (new process) resumes from the
	// snapshot against the same live server.
	bk2 := stormtune.NewRemoteBackend(bk.URL(), stormtune.RemoteBackendOptions{})
	resumed, err := stormtune.ResumeTuner(snap, top, bk2, stormtune.TunerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("resumed run has %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		if w.Config.Fingerprint() != g.Config.Fingerprint() || w.Result.Throughput != g.Result.Throughput {
			t.Fatalf("step %d diverged from the uninterrupted run", w.Step)
		}
		if g.Result.Failure == stormtune.FailureEvaluation {
			t.Fatalf("step %d recorded a permanent failure; retries should have absorbed it", g.Step)
		}
	}
	if got.BestStep != want.BestStep {
		t.Fatalf("best step %d, want %d", got.BestStep, want.BestStep)
	}
}

// TestPublicRemotePoolAsync: several clients for the same worker pool
// behind NewBackendPool, driven concurrently by RunAsync — the
// one-session-many-workers deployment.
func TestPublicRemotePoolAsync(t *testing.T) {
	top, bk1 := remoteTestSetup(t, 0)
	// Second worker process serving the same topology.
	srv2 := startWorker(t, stormtune.BackendServerOptions{}, top)
	bk2 := stormtune.NewRemoteBackend(srv2.URL, stormtune.RemoteBackendOptions{})

	// CheckRemoteBackend primes each client's served-fingerprint cache,
	// which the pool routes by.
	for _, bk := range []*stormtune.RemoteBackend{bk1, bk2} {
		if _, err := stormtune.CheckRemoteBackend(context.Background(), bk, top, stormtune.SinkTuples); err != nil {
			t.Fatal(err)
		}
	}

	pool, err := stormtune.NewBackendPool(bk1, bk2)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := stormtune.NewTuner(top, pool, quietTunerOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.RunAsync(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("pool session ran %d records, want 8", len(res.Records))
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("no successful trial through the pool")
	}
}

// TestPublicPoolRoutesMixedFleet: a pool whose members serve different
// topologies routes each session's trials to the member that serves
// them — the multi-tenant deployment a heterogeneous fleet relies on.
func TestPublicPoolRoutesMixedFleet(t *testing.T) {
	topA := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	topB := stormtune.BuildSynthetic("medium", stormtune.Condition{}, 1)
	if stormtune.TopologyFingerprint(topA) == stormtune.TopologyFingerprint(topB) {
		t.Fatal("fixture broken: fingerprints collide")
	}
	srvA := startWorker(t, stormtune.BackendServerOptions{}, topA)
	srvB := startWorker(t, stormtune.BackendServerOptions{}, topB)
	bkA := stormtune.NewRemoteBackend(srvA.URL, stormtune.RemoteBackendOptions{})
	bkB := stormtune.NewRemoteBackend(srvB.URL, stormtune.RemoteBackendOptions{})
	if _, err := stormtune.CheckRemoteBackend(context.Background(), bkA, topA, stormtune.SinkTuples); err != nil {
		t.Fatal(err)
	}
	if _, err := stormtune.CheckRemoteBackend(context.Background(), bkB, topB, stormtune.SinkTuples); err != nil {
		t.Fatal(err)
	}
	pool, err := stormtune.NewBackendPool(bkA, bkB)
	if err != nil {
		t.Fatal(err)
	}

	for _, top := range []*stormtune.Topology{topA, topB} {
		opts := quietTunerOpts(4)
		tn, err := stormtune.NewTuner(top, pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.Best(); !ok {
			t.Fatalf("no successful trial for %s through the mixed pool", top.Name)
		}
	}
	// Both members must have evaluated their own topology's trials.
	for _, ws := range pool.Stats() {
		if ws.Completed == 0 {
			t.Fatalf("worker %s evaluated nothing; routing broken: %+v", ws.Worker, pool.Stats())
		}
	}
}

// TestRemoteMismatchRejected: tuning topology A against a worker
// serving topology B must fail fast at CheckRemoteBackend — both on a
// different operator count and on a same-shaped topology with a
// different name.
func TestRemoteMismatchRejected(t *testing.T) {
	served, bk := remoteTestSetup(t, 0)
	other := stormtune.BuildSynthetic("medium", stormtune.Condition{}, 1)
	if _, err := stormtune.CheckRemoteBackend(context.Background(), bk, other, stormtune.SinkTuples); err == nil {
		t.Fatal("mismatched operator count accepted")
	}
	sameShape := stormtune.BuildSynthetic("small", stormtune.Condition{TimeImbalance: 1}, 1)
	if sameShape.N() != served.N() || sameShape.Name == served.Name {
		t.Fatalf("fixture broken: %q (%d) vs %q (%d)", sameShape.Name, sameShape.N(), served.Name, served.N())
	}
	if _, err := stormtune.CheckRemoteBackend(context.Background(), bk, sameShape, stormtune.SinkTuples); err == nil {
		t.Fatal("same-shaped topology with a different name accepted")
	}
	// Wrong metric: same topology, different throughput definition.
	if _, err := stormtune.CheckRemoteBackend(context.Background(), bk, served, stormtune.SourceTuples); err == nil {
		t.Fatal("mismatched metric accepted")
	}
	// Same name, same node count, different generation seed (under a
	// condition whose imbalance/contention assignment is seeded): only
	// the structural fingerprint can tell these apart.
	cond := stormtune.Condition{TimeImbalance: 1, ContentiousFraction: 0.25}
	seedA := stormtune.BuildSynthetic("small", cond, 1)
	seedB := stormtune.BuildSynthetic("small", cond, 2)
	if seedA.Name != seedB.Name || seedA.N() != seedB.N() {
		t.Fatalf("fixture broken: %q (%d) vs %q (%d)", seedA.Name, seedA.N(), seedB.Name, seedB.N())
	}
	if stormtune.TopologyFingerprint(seedA) == stormtune.TopologyFingerprint(seedB) {
		t.Fatal("fixture broken: different seeds fingerprint identically")
	}
	srvA := startWorker(t, stormtune.BackendServerOptions{}, seedA)
	bkA := stormtune.NewRemoteBackend(srvA.URL, stormtune.RemoteBackendOptions{})
	if _, err := stormtune.CheckRemoteBackend(context.Background(), bkA, seedA, stormtune.SinkTuples); err != nil {
		t.Fatalf("matching topology rejected: %v", err)
	}
	err := func() error {
		_, err := stormtune.CheckRemoteBackend(context.Background(), bkA, seedB, stormtune.SinkTuples)
		return err
	}()
	if err == nil {
		t.Fatal("different-seed topology with identical name/shape accepted")
	}
	// The mismatch error carries the requested vs. served fingerprint
	// sets, so the operator can see exactly what to fix.
	var mm *stormtune.RemoteMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("err = %T, want *RemoteMismatchError", err)
	}
	if mm.WantFingerprint != stormtune.TopologyFingerprint(seedB) {
		t.Fatalf("WantFingerprint = %s, want %s", mm.WantFingerprint, stormtune.TopologyFingerprint(seedB))
	}
	if len(mm.ServedFingerprints) != 1 || mm.ServedFingerprints[0] != stormtune.TopologyFingerprint(seedA) {
		t.Fatalf("ServedFingerprints = %v, want the worker's set", mm.ServedFingerprints)
	}
}

// TestRemoteServeProcessRoundTrip tunes against an externally started
// `stormtune serve` process — the CI job starts one and points
// STORMTUNE_REMOTE_URL at it (skipped when the variable is unset). The
// server must run `-topology small -seed 1`; with `-flaky N` the test
// additionally asserts the retry path fired, and STORMTUNE_REMOTE_TOKEN
// supplies the bearer token for workers started with `-token`.
func TestRemoteServeProcessRoundTrip(t *testing.T) {
	url := os.Getenv("STORMTUNE_REMOTE_URL")
	if url == "" {
		t.Skip("STORMTUNE_REMOTE_URL not set; start `stormtune serve` and point it here")
	}
	top := stormtune.BuildSynthetic("small", stormtune.Condition{}, 1)
	bk := stormtune.NewRemoteBackend(url, stormtune.RemoteBackendOptions{
		Auth:      stormtune.RemoteCredentials{Token: os.Getenv("STORMTUNE_REMOTE_TOKEN")},
		Transport: stormtune.RemoteTransport{Retries: 2},
	})
	info, err := stormtune.CheckRemoteBackend(context.Background(), bk, top, stormtune.SinkTuples)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live server at %s serves %d topolog(ies), %v", url, len(info.Topologies), info.Fingerprints())

	var mu sync.Mutex
	var failed int
	spec := stormtune.PaperCluster()
	tn, err := stormtune.NewTuner(top, bk, stormtune.TunerOptions{
		Steps: 10, Seed: 1, Cluster: &spec,
		OptimizerOptions: stormtune.OptimizerOptions{Candidates: 150, HyperSamples: 2, LocalSearchIters: 4},
		Retry:            stormtune.RetryPolicy{MaxAttempts: 4, Backoff: 10 * time.Millisecond},
		Observer: stormtune.ObserverFunc(func(e stormtune.Event) {
			if _, ok := e.(stormtune.TrialFailed); ok {
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelTimeout := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelTimeout()
	res, err := tn.RunAsync(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("ran %d records, want 10", len(res.Records))
	}
	best, ok := res.Best()
	if !ok || best.Result.Throughput <= 0 {
		t.Fatalf("no successful trial over the live server: %+v", best)
	}
	if os.Getenv("STORMTUNE_REMOTE_FLAKY") != "" && failed == 0 {
		t.Fatal("server is flaky but no TrialFailed event was observed")
	}
	t.Logf("best %.0f tuples/s at step %d (%d lost evaluations retried)",
		best.Result.Throughput, res.BestStep, failed)
}
