package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"stormtune/internal/storm"
)

// unreachableErr mimics a transport-level failure: the request never
// reached a server, so the pool counts it toward eviction.
type unreachableErr struct{}

func (unreachableErr) Error() string     { return "dial tcp: connection refused" }
func (unreachableErr) Unreachable() bool { return true }

// crashyWorker is a pool member whose process can be "killed" and
// "restarted" by flipping down; it answers health probes accordingly.
type crashyWorker struct {
	down atomic.Bool
	runs atomic.Int64
}

func (w *crashyWorker) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	if w.down.Load() {
		return storm.Result{}, unreachableErr{}
	}
	w.runs.Add(1)
	return storm.Result{Throughput: 100}, nil
}

func (w *crashyWorker) CheckHealth(ctx context.Context) error {
	if w.down.Load() {
		return unreachableErr{}
	}
	return nil
}

// TestPoolEvictsAndReadmitsUnreachableMember: consecutive transport
// failures evict a member, an acquire with nothing healthy re-probes it
// synchronously (failing with AllMembersDownError while it stays down),
// and a successful probe readmits it.
func TestPoolEvictsAndReadmitsUnreachableMember(t *testing.T) {
	w := &crashyWorker{}
	w.down.Store(true)
	pool, err := NewPoolBackend(w)
	if err != nil {
		t.Fatal(err)
	}

	// The member stays healthy until the unhealthyAfter-th consecutive
	// transport failure evicts it.
	for i := 0; i < unhealthyAfter; i++ {
		if st := pool.Stats(); !st[0].Healthy {
			t.Fatalf("evicted after %d failures, want %d", i, unhealthyAfter)
		}
		if _, err := pool.Run(context.Background(), Trial{ID: i}); !errors.As(err, &unreachableErr{}) {
			t.Fatalf("run %d err = %v, want the transport failure", i, err)
		}
	}
	st := pool.Stats()
	if len(st) != 1 || st[0].Healthy || st[0].Errors != unhealthyAfter {
		t.Fatalf("after eviction Stats = %+v, want unhealthy with %d errors", st, unhealthyAfter)
	}

	// Still down: acquire finds nothing healthy, re-probes, and reports
	// every serving member down — a retryable condition, not permanent.
	_, err = pool.Run(context.Background(), Trial{ID: unhealthyAfter})
	var allDown *AllMembersDownError
	if !errors.As(err, &allDown) {
		t.Fatalf("err = %v, want AllMembersDownError", err)
	}
	if p, ok := err.(interface{ Permanent() bool }); ok && p.Permanent() {
		t.Fatal("AllMembersDownError must stay retryable: workers come back")
	}

	// Worker restarts: the next acquire's re-probe readmits it and the
	// trial runs.
	w.down.Store(false)
	if _, err := pool.Run(context.Background(), Trial{ID: unhealthyAfter + 1}); err != nil {
		t.Fatalf("run after restart: %v", err)
	}
	st = pool.Stats()
	if !st[0].Healthy || st[0].Completed != 1 {
		t.Fatalf("after readmission Stats = %+v, want healthy with 1 completion", st)
	}
	if w.runs.Load() != 1 {
		t.Fatalf("worker ran %d evaluations, want 1", w.runs.Load())
	}
}

// routedWorker serves a fixed fingerprint set.
type routedWorker struct {
	fps map[string]bool
}

func (w *routedWorker) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	return storm.Result{Throughput: 100}, nil
}

func (w *routedWorker) Serves(fp string) bool { return w.fps[fp] }

// TestPoolUnroutableFingerprintIsPermanent: a fingerprint no member
// serves fails immediately and permanently — the registry view will not
// change by retrying.
func TestPoolUnroutableFingerprintIsPermanent(t *testing.T) {
	pool, err := NewPoolBackend(&routedWorker{fps: map[string]bool{"aaaa": true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Run(context.Background(), Trial{Fingerprint: "aaaa"}); err != nil {
		t.Fatalf("routable trial failed: %v", err)
	}
	_, err = pool.Run(context.Background(), Trial{Fingerprint: "dead"})
	var nsm *NoServingMemberError
	if !errors.As(err, &nsm) {
		t.Fatalf("err = %v, want NoServingMemberError", err)
	}
	if !nsm.Permanent() {
		t.Fatal("NoServingMemberError must be permanent")
	}
	if nsm.Fingerprint != "dead" || len(nsm.Members) != 1 {
		t.Fatalf("error lacks diagnostics: %+v", nsm)
	}
}
