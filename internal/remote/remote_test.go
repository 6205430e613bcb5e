package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

func testTopo() *topo.Topology {
	return topo.MustNew("t",
		[]topo.Node{
			{Name: "s", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "a", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "b", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 1, To: 2}},
	)
}

// testTopo2 is structurally different from testTopo, so the two have
// distinct fingerprints — the multi-tenant routing key.
func testTopo2() *topo.Topology {
	return topo.MustNew("u",
		[]topo.Node{
			{Name: "s", Kind: topo.Spout, TimeUnits: 10, Selectivity: 1, TupleBytes: 80},
			{Name: "a", Kind: topo.Bolt, TimeUnits: 40, Selectivity: 1, TupleBytes: 80},
		},
		[]topo.Edge{{From: 0, To: 1}},
	)
}

func fp(tp *topo.Topology) string { return fmt.Sprintf("%016x", tp.Fingerprint()) }

func testEval(t *topo.Topology) *storm.FluidSim {
	spec := cluster.Spec{Machines: 8, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 16, ThrashTasksPerCore: 4}
	f := storm.NewFluidSim(t, spec, storm.SinkTuples, 1)
	f.Noise = storm.NoNoise()
	return f
}

func testBO(t *topo.Topology, seed int64) core.Strategy {
	return core.NewBO(t, cluster.Small(), storm.DefaultSyntheticConfig(t, 1), core.BOOptions{Seed: seed})
}

func infoFor(tp *topo.Topology) TopologyInfo {
	return TopologyInfo{Topology: tp.Name, Nodes: tp.N(), Metric: storm.SinkTuples.String(), Fingerprint: fp(tp)}
}

// startServer brings up a live local evaluation server (real TCP
// listener) serving testTopo the way `stormtune serve` does, and
// returns a client built with copts.
func startServer(t *testing.T, sopts ServerOptions, copts BackendOptions) (*Backend, *httptest.Server) {
	t.Helper()
	tp := testTopo()
	srv := httptest.NewServer(NewSingleServer(core.AsBackend(testEval(tp)), infoFor(tp), sopts).Handler())
	t.Cleanup(srv.Close)
	return NewBackend(srv.URL, copts), srv
}

// TestRunRoundTrip: a trial evaluated over the wire returns exactly the
// measurement the simulator produces locally — the remote backend is
// transparent, noise draw included. The trial carries no fingerprint:
// a single-topology worker accepts it (the single-tenant shortcut).
func TestRunRoundTrip(t *testing.T) {
	tp := testTopo()
	bk, _ := startServer(t, ServerOptions{}, BackendOptions{})
	local := testEval(tp)

	cfg := storm.DefaultSyntheticConfig(tp, 3)
	for runIndex := 1; runIndex <= 3; runIndex++ {
		want := local.Run(cfg, runIndex)
		got, err := bk.Run(context.Background(), core.Trial{ID: runIndex, Config: cfg, RunIndex: runIndex, Attempt: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Throughput != want.Throughput || got.Failed != want.Failed || got.Bottleneck != want.Bottleneck {
			t.Fatalf("run %d over the wire = %+v, local = %+v", runIndex, got, want)
		}
	}
}

// TestInfo: the client can verify what the worker serves, and Info
// primes the served-fingerprint cache routing consults.
func TestInfo(t *testing.T) {
	bk, _ := startServer(t, ServerOptions{}, BackendOptions{})
	info, err := bk.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Topologies) != 1 || info.Topologies[0].Topology != "t" || info.Topologies[0].Nodes != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.AuthRequired {
		t.Fatal("open server advertises auth")
	}
	if !bk.Serves(fp(testTopo())) {
		t.Fatal("Info did not prime the served-fingerprint cache")
	}
}

// TestMultiTenantRouting: one worker serves two topologies; /run routes
// each trial to the registered backend by fingerprint, and a
// fingerprint-less trial is ambiguous (no single-tenant shortcut).
func TestMultiTenantRouting(t *testing.T) {
	t1, t2 := testTopo(), testTopo2()
	if fp(t1) == fp(t2) {
		t.Fatal("test topologies must have distinct fingerprints")
	}
	s := NewServer(ServerOptions{})
	if err := s.Register(infoFor(t1), core.AsBackend(testEval(t1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(infoFor(t2), core.AsBackend(testEval(t2))); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(infoFor(t2), core.AsBackend(testEval(t2))); err == nil {
		t.Fatal("duplicate fingerprint registration accepted")
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	bk := NewBackend(srv.URL, BackendOptions{})

	for _, tc := range []struct {
		tp *topo.Topology
	}{{t1}, {t2}} {
		cfg := storm.DefaultSyntheticConfig(tc.tp, 2)
		want := testEval(tc.tp).Run(cfg, 1)
		got, err := bk.Run(context.Background(), core.Trial{
			ID: 1, Config: cfg, RunIndex: 1, Attempt: 1, Fingerprint: fp(tc.tp),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.tp.Name, err)
		}
		if got.Throughput != want.Throughput {
			t.Fatalf("%s routed to the wrong backend: got %v, want %v", tc.tp.Name, got.Throughput, want.Throughput)
		}
	}

	// Ambiguous: two topologies served, no fingerprint on the trial.
	cfg := storm.DefaultSyntheticConfig(t1, 2)
	_, err := bk.Run(context.Background(), core.Trial{ID: 2, Config: cfg, RunIndex: 1, Attempt: 1})
	var ufe *UnknownFingerprintError
	if !errors.As(err, &ufe) {
		t.Fatalf("fingerprint-less trial on a multi-topology worker: err = %v, want UnknownFingerprintError", err)
	}
}

// TestUnknownFingerprintIsPermanent: a trial routed to a worker that
// does not serve its topology comes back as a typed, permanent error
// listing what the worker does serve.
func TestUnknownFingerprintIsPermanent(t *testing.T) {
	bk, _ := startServer(t, ServerOptions{}, BackendOptions{})
	cfg := storm.DefaultSyntheticConfig(testTopo(), 1)
	_, err := bk.Run(context.Background(), core.Trial{
		ID: 1, Config: cfg, RunIndex: 1, Attempt: 1, Fingerprint: "00000000deadbeef",
	})
	var ufe *UnknownFingerprintError
	if !errors.As(err, &ufe) {
		t.Fatalf("err = %v, want UnknownFingerprintError", err)
	}
	if !ufe.Permanent() {
		t.Fatal("unknown-fingerprint errors must be permanent (no retry burn)")
	}
	if len(ufe.Served) != 1 || ufe.Served[0] != fp(testTopo()) {
		t.Fatalf("Served = %v, want the worker's fingerprint set", ufe.Served)
	}
}

// TestAuthRejection: a server started with a token rejects tokenless
// and wrong-token requests with a typed, permanent AuthError on both
// /run and /info, while the right token and the open /healthz work.
func TestAuthRejection(t *testing.T) {
	tp := testTopo()
	srv := httptest.NewServer(NewSingleServer(core.AsBackend(testEval(tp)), infoFor(tp),
		ServerOptions{Auth: Credentials{Token: "s3cret"}}).Handler())
	t.Cleanup(srv.Close)

	cfg := storm.DefaultSyntheticConfig(tp, 1)
	for name, bad := range map[string]*Backend{
		"no token":    NewBackend(srv.URL, BackendOptions{}),
		"wrong token": NewBackend(srv.URL, BackendOptions{Auth: Credentials{Token: "nope"}}),
	} {
		var ae *AuthError
		if _, err := bad.Run(context.Background(), core.Trial{ID: 1, Config: cfg, RunIndex: 1, Attempt: 1}); !errors.As(err, &ae) {
			t.Fatalf("%s /run: err = %v, want AuthError", name, err)
		}
		if !ae.Permanent() {
			t.Fatalf("%s: auth errors must be permanent", name)
		}
		if _, err := bad.Info(context.Background()); !errors.As(err, &ae) {
			t.Fatalf("%s /info: err = %v, want AuthError", name, err)
		}
	}

	good := NewBackend(srv.URL, BackendOptions{Auth: Credentials{Token: "s3cret"}})
	info, err := good.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !info.AuthRequired {
		t.Fatal("authed server must advertise AuthRequired")
	}
	if _, err := good.Run(context.Background(), core.Trial{ID: 1, Config: cfg, RunIndex: 1, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := good.CheckHealth(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAuthFailureBurnsNoRetries: a session pointed at a worker it
// cannot authenticate to fails each trial immediately — one attempt,
// zero TrialRetried events — instead of burning its whole retry budget
// on a failure that cannot heal.
func TestAuthFailureBurnsNoRetries(t *testing.T) {
	tp := testTopo()
	srv := httptest.NewServer(NewSingleServer(core.AsBackend(testEval(tp)), infoFor(tp),
		ServerOptions{Auth: Credentials{Token: "s3cret"}}).Handler())
	t.Cleanup(srv.Close)
	bk := NewBackend(srv.URL, BackendOptions{}) // no token

	var mu sync.Mutex
	var retried, permanent int
	var attempts []int
	obs := core.ObserverFunc(func(e core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev := e.(type) {
		case core.TrialRetried:
			retried++
		case core.TrialFailed:
			if ev.Permanent {
				permanent++
				attempts = append(attempts, ev.Attempt)
			}
		}
	})
	sess := core.NewSession(testBO(tp, 3), bk, core.SessionOptions{
		MaxSteps: 3,
		Retry:    core.RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond},
		Observer: obs,
	})
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if retried != 0 {
		t.Fatalf("%d TrialRetried events; auth failures must not burn the retry budget", retried)
	}
	if permanent != 3 {
		t.Fatalf("%d permanent failures, want all 3 trials", permanent)
	}
	for _, a := range attempts {
		if a != 1 {
			t.Fatalf("permanent failure after %d attempts, want 1", a)
		}
	}
}

// TestAdmissionRefusal: a worker at capacity refuses with structured
// backpressure — 429, queue depth, estimated wait, Retry-After — typed
// as OverloadedError, and the refused run never touches the backend.
func TestAdmissionRefusal(t *testing.T) {
	tp := testTopo()
	blocked := &blockingBackend{release: make(chan struct{})}
	srv := httptest.NewServer(NewSingleServer(blocked, infoFor(tp),
		ServerOptions{Admission: Admission{MaxConcurrent: 1}}).Handler())
	t.Cleanup(srv.Close)
	bk := NewBackend(srv.URL, BackendOptions{})
	cfg := storm.DefaultSyntheticConfig(tp, 1)

	// Occupy the only slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		bk.Run(context.Background(), core.Trial{ID: 1, Config: cfg, RunIndex: 1, Attempt: 1})
	}()
	t.Cleanup(func() { close(blocked.release); <-done })
	waitInFlight(t, bk, 1)

	_, err := bk.Run(context.Background(), core.Trial{ID: 2, Config: cfg, RunIndex: 1, Attempt: 1})
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want OverloadedError", err)
	}
	if !oe.Overloaded() {
		t.Fatal("OverloadedError must mark itself Overloaded")
	}
	if oe.QueueDepth < 1 {
		t.Fatalf("QueueDepth = %d, want >= 1", oe.QueueDepth)
	}
	if oe.RetryAfterHint() < time.Second {
		t.Fatalf("RetryAfterHint = %v, want the server's >= 1s floor", oe.RetryAfterHint())
	}
}

// waitInFlight polls /info until the worker reports n in-flight runs.
func waitInFlight(t *testing.T, bk *Backend, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, err := bk.Info(context.Background())
		if err == nil && info.InFlight >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker never reached %d in-flight runs", n)
}

// TestPoolShedsToIdleWorker is the admission-shedding acceptance test:
// with one worker's only slot held by an outside client and a second
// idle worker, every pool trial is re-routed — shed, not queued — to
// the idle worker. The oversubscribed worker records sheds and no
// completions; the idle worker evaluates everything.
func TestPoolShedsToIdleWorker(t *testing.T) {
	tp := testTopo()
	cfg := storm.DefaultSyntheticConfig(tp, 1)

	blocked := &blockingBackend{release: make(chan struct{})}
	busySrv := httptest.NewServer(NewSingleServer(blocked, infoFor(tp),
		ServerOptions{Admission: Admission{MaxConcurrent: 1}}).Handler())
	t.Cleanup(busySrv.Close)
	idleSrv := httptest.NewServer(NewSingleServer(core.AsBackend(testEval(tp)), infoFor(tp), ServerOptions{}).Handler())
	t.Cleanup(idleSrv.Close)

	busy := NewBackend(busySrv.URL, BackendOptions{})
	idle := NewBackend(idleSrv.URL, BackendOptions{})
	for _, bk := range []*Backend{busy, idle} {
		if _, err := bk.Info(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// An outside client holds the busy worker's only slot for the whole
	// test, so its admission control refuses every pool trial.
	done := make(chan struct{})
	go func() {
		defer close(done)
		busy.Run(context.Background(), core.Trial{ID: 99, Config: cfg, RunIndex: 1, Attempt: 1})
	}()
	t.Cleanup(func() { close(blocked.release); <-done })
	waitInFlight(t, busy, 1)

	pool, err := core.NewPoolBackend(busy, idle)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 3
	for i := 1; i <= trials; i++ {
		res, err := pool.Run(context.Background(), core.Trial{
			ID: i, Config: cfg, RunIndex: i, Attempt: 1, Fingerprint: fp(tp),
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res.Failed {
			t.Fatalf("trial %d failed: %+v", i, res)
		}
	}

	stats := map[string]core.WorkerStats{}
	for _, ws := range pool.Stats() {
		stats[ws.Worker] = ws
	}
	busyStats, idleStats := stats[busySrv.URL], stats[idleSrv.URL]
	if busyStats.Completed != 0 {
		t.Fatalf("oversubscribed worker completed %d trials, want 0 (shed, not queued)", busyStats.Completed)
	}
	if busyStats.Shed == 0 {
		t.Fatalf("oversubscribed worker shed %d trials, want > 0; stats = %+v", busyStats.Shed, pool.Stats())
	}
	if busyStats.Errors != 0 {
		t.Fatalf("admission refusals counted as %d errors; they are neither errors nor completions", busyStats.Errors)
	}
	if idleStats.Completed != trials {
		t.Fatalf("idle worker completed %d trials, want all %d", idleStats.Completed, trials)
	}
}

// TestServerRejectsWrongTopology: a config sized for a different
// topology is rejected before evaluation with a clear error.
func TestServerRejectsWrongTopology(t *testing.T) {
	bk, _ := startServer(t, ServerOptions{}, BackendOptions{})
	cfg := storm.DefaultSyntheticConfig(testTopo(), 1)
	cfg.Hints = cfg.Hints[:2] // wrong operator count
	_, err := bk.Run(context.Background(), core.Trial{ID: 1, Config: cfg, RunIndex: 1, Attempt: 1})
	if err == nil {
		t.Fatal("mismatched config accepted")
	}
}

// TestInjectedFaultSurfacesAsLostEvaluation: a 500 from the server is
// an error (lost measurement), not a zero observation.
func TestInjectedFaultSurfacesAsLostEvaluation(t *testing.T) {
	tp := testTopo()
	bk, _ := startServer(t, ServerOptions{FailEveryN: 1}, BackendOptions{}) // every request fails
	cfg := storm.DefaultSyntheticConfig(tp, 1)
	_, err := bk.Run(context.Background(), core.Trial{ID: 1, Config: cfg, RunIndex: 1, Attempt: 1})
	if err == nil {
		t.Fatal("injected fault did not surface as an error")
	}
}

// TestTransportRetryAfterConnectionRefused: connection-level failures
// are re-POSTed by the client itself (the evaluation is pure), so a
// worker hiccup shorter than the transport retry budget is invisible.
func TestTransportRetryAfterConnectionRefused(t *testing.T) {
	tp := testTopo()
	srv := httptest.NewServer(NewSingleServer(core.AsBackend(testEval(tp)), infoFor(tp), ServerOptions{}).Handler())
	url := srv.URL
	srv.Close() // connection refused now
	bk := NewBackend(url, BackendOptions{Transport: Transport{Retries: 2, Backoff: 10 * time.Millisecond}})
	cfg := storm.DefaultSyntheticConfig(tp, 1)
	start := time.Now()
	_, err := bk.Run(context.Background(), core.Trial{ID: 1, Config: cfg, RunIndex: 1, Attempt: 1})
	if err == nil {
		t.Fatal("dead server produced a result")
	}
	var te *TransportError
	if !errors.As(err, &te) || !te.Unreachable() {
		t.Fatalf("err = %v, want an Unreachable TransportError", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("transport retries not attempted (returned in %v)", d)
	}
}

// blockingBackend ignores ctx mid-run the way the simulators do,
// holding the evaluation until released.
type blockingBackend struct{ release chan struct{} }

func (b *blockingBackend) Run(ctx context.Context, tr core.Trial) (storm.Result, error) {
	<-b.release
	return storm.Result{Throughput: 1}, nil
}

// TestServerAbandonsRunAtDeadline: a trial deadline is enforced by the
// server even when the backend cannot observe ctx mid-run — the reply
// is a 504-style lost evaluation instead of a worker held hostage.
func TestServerAbandonsRunAtDeadline(t *testing.T) {
	blocked := &blockingBackend{release: make(chan struct{})}
	defer close(blocked.release)
	tp := testTopo()
	srv := httptest.NewServer(NewSingleServer(blocked, infoFor(tp), ServerOptions{MaxRunSeconds: 1}).Handler())
	t.Cleanup(srv.Close)
	bk := NewBackend(srv.URL, BackendOptions{})
	cfg := storm.DefaultSyntheticConfig(tp, 1)
	start := time.Now()
	_, err := bk.Run(context.Background(), core.Trial{
		ID: 1, Config: cfg, RunIndex: 1, Attempt: 1, Timeout: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("deadline-exceeding run returned a result")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("server held the response %v past the 50ms trial deadline", d)
	}
}

// TestEndToEndConcurrentRetries: a session drives two concurrent
// trials through one RemoteBackend against a live local server whose
// fault injection kills requests mid-flight; the RetryPolicy absorbs
// every fault (TrialFailed → TrialRetried, observed) and the session
// completes its full budget with no evaluation-failure records.
func TestEndToEndConcurrentRetries(t *testing.T) {
	tp := testTopo()
	const steps = 10
	bk, _ := startServer(t, ServerOptions{FailEveryN: 4}, BackendOptions{})

	var mu sync.Mutex
	var failed, retried, permanent int
	obs := core.ObserverFunc(func(e core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev := e.(type) {
		case core.TrialFailed:
			failed++
			if ev.Permanent {
				permanent++
			}
		case core.TrialRetried:
			retried++
		}
	})
	sess := core.NewSession(testBO(tp, 3), bk, core.SessionOptions{
		MaxSteps: steps,
		Retry:    core.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
		Observer: obs,
	})
	res, err := sess.RunAsync(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != steps {
		t.Fatalf("completed %d records, want %d", len(res.Records), steps)
	}
	if failed == 0 || retried == 0 {
		t.Fatalf("fault injection unobserved: failed=%d retried=%d", failed, retried)
	}
	if permanent != 0 {
		t.Fatalf("%d trials failed permanently; MaxAttempts 4 must absorb every-4th faults", permanent)
	}
	for _, rec := range res.Records {
		if rec.Result.Failure == storm.FailureEvaluation {
			t.Fatalf("retry budget should have absorbed every injected fault: %+v", rec.Result)
		}
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("no successful trial over the wire")
	}
}

// TestEndToEndSnapshotResumeBitIdentical is the acceptance scenario's
// second half: a remote tuning session over a flaky live server is
// snapshotted mid-run and cancelled; a "new process" resumes it with a
// fresh client against the same server, and the stitched records are
// bit-identical to an uninterrupted run against the local simulator —
// retries re-use the trial's RunIndex, so lost-then-recovered
// measurements change nothing.
func TestEndToEndSnapshotResumeBitIdentical(t *testing.T) {
	tp := testTopo()
	const steps = 12

	// Reference: uninterrupted local sequential run.
	want, err := core.NewSession(testBO(tp, 3), core.AsBackend(testEval(tp)), core.SessionOptions{MaxSteps: steps}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	bk, _ := startServer(t, ServerOptions{FailEveryN: 5}, BackendOptions{})
	var mu sync.Mutex
	var completed, failed int
	var snap *core.SessionState
	ctx, cancel := context.WithCancel(context.Background())
	var sess *core.Session
	obs := core.ObserverFunc(func(e core.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.(type) {
		case core.TrialFailed:
			failed++
		case core.TrialCompleted:
			completed++
			if completed == steps/2 {
				snap = sess.Snapshot()
				cancel()
			}
		}
	})
	sess = core.NewSession(testBO(tp, 3), bk, core.SessionOptions{
		MaxSteps: steps,
		Retry:    core.RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
		Observer: obs,
	})
	if _, err := sess.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first half: err = %v, want context.Canceled", err)
	}
	if snap == nil {
		t.Fatal("snapshot never taken")
	}
	if failed == 0 {
		t.Fatal("fault injection unobserved in first half")
	}

	// "New process": fresh client against the same live server.
	bk2 := NewBackend(bk.URL(), BackendOptions{})
	resumed, err := core.ResumeSession(snap, testBO(tp, 3), bk2, core.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("resumed run completed %d records, want %d", len(got.Records), len(want.Records))
	}
	for i, w := range want.Records {
		g := got.Records[i]
		if g.Step != w.Step || g.Config.Fingerprint() != w.Config.Fingerprint() {
			t.Fatalf("step %d config diverged", w.Step)
		}
		if g.Result.Throughput != w.Result.Throughput {
			t.Fatalf("step %d throughput %v, want %v (bit-identical resume)", w.Step, g.Result.Throughput, w.Result.Throughput)
		}
	}
	if got.BestStep != want.BestStep {
		t.Fatalf("best step %d, want %d", got.BestStep, want.BestStep)
	}
}

// TestServerRejectsInvalidConfig: a config the simulator cannot run is
// the caller's error — HTTP 400 bad_request, not a crashed worker — and
// the worker goes on serving. A hint far past the cluster's slots is a
// valid config that fails placement, evaluated without placing it.
func TestServerRejectsInvalidConfig(t *testing.T) {
	tp := testTopo()
	_, srv := startServer(t, ServerOptions{}, BackendOptions{})
	post := func(cfg storm.Config) (int, RunResponse) {
		t.Helper()
		body, err := json.Marshal(RunRequest{Trial: TrialMeta{ID: 1, RunIndex: 1, Attempt: 1}, Config: cfg, Fingerprint: fp(tp)})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var resp RunResponse
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return hr.StatusCode, resp
	}
	bad := storm.DefaultSyntheticConfig(tp, 1)
	bad.Hints[1] = -1
	if code, resp := post(bad); code != http.StatusBadRequest || resp.Code != CodeBadRequest {
		t.Fatalf("negative hint: HTTP %d %+v, want 400 %s", code, resp, CodeBadRequest)
	}
	huge := storm.DefaultSyntheticConfig(tp, 1)
	huge.Hints[1] = 1 << 40
	if code, resp := post(huge); code != http.StatusOK || resp.Result == nil || resp.Result.Failure != storm.FailurePlacement {
		t.Fatalf("2^40 hint: HTTP %d %+v, want 200 with a placement failure", code, resp)
	}
	if code, resp := post(storm.DefaultSyntheticConfig(tp, 2)); code != http.StatusOK || resp.Result == nil || resp.Result.Failed {
		t.Fatalf("valid config after the rejections: HTTP %d %+v", code, resp)
	}
}
