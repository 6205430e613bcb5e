package core

import (
	"context"
	"sync"
	"time"

	"stormtune/internal/storm"
)

// SimBackend evaluates trials on simulated time: a trial dispatched at
// simulated instant t completes at t + Duration(cfg, runIndex), and
// results are released strictly in order of simulated completion
// (ties by trial ID). A result is released only when the session's
// driver waits for its next completion with every trial it has issued
// held here, so a trial proposed in reaction to a completion is
// dispatched at that completion's instant however long the ask took.
// No wall clock enters: Now measures dispatch overlap alone, and given
// the seed a run is deterministic, the drivers' completion order
// included.
//
// It serves one session's drivers (Run, RunBatch, RunAsync), which
// announce their waits to it; a pool, a fleet or a hand-driven
// ask/tell loop never release a result.
type SimBackend struct {
	// Ev measures a trial once its simulated time has passed.
	Ev storm.Evaluator
	// Duration is a trial's simulated run time, e.g.
	// storm.JitterEval.Duration's seeded heavy-tailed draw.
	Duration func(cfg storm.Config, runIndex int) time.Duration

	mu      sync.Mutex
	now     time.Duration
	held    []*simTrial
	waiting int // in-flight count of the driver's pending wait; 0 = none
}

// simTrial is one dispatched trial held until its simulated completion.
type simTrial struct {
	id      int
	end     time.Duration
	release chan struct{}
}

// Now returns the simulated instant of the latest released completion:
// after a driver returns, the makespan of its run.
func (b *SimBackend) Now() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// Run implements Backend: it holds the trial until its simulated
// completion is released, then measures it with Ev.
func (b *SimBackend) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	b.mu.Lock()
	st := &simTrial{id: tr.ID, end: b.now + b.Duration(tr.Config, tr.RunIndex), release: make(chan struct{})}
	b.held = append(b.held, st)
	b.releaseNext()
	b.mu.Unlock()
	select {
	case <-st.release:
		return b.Ev.Run(tr.Config, tr.RunIndex), nil
	case <-ctx.Done():
		b.mu.Lock()
		for i, h := range b.held {
			if h == st {
				b.held = append(b.held[:i], b.held[i+1:]...)
				break
			}
		}
		b.mu.Unlock()
		return storm.Result{}, ctx.Err()
	}
}

// driverWaits records that the driver blocks for its next completion
// with inflight trials out, and releases the earliest once all of them
// are held.
func (b *SimBackend) driverWaits(inflight int) {
	b.mu.Lock()
	b.waiting = inflight
	b.releaseNext()
	b.mu.Unlock()
}

// releaseNext releases the held trial that completes first, advancing
// the clock to its completion, when the driver waits and every trial it
// has out is held. Callers hold mu.
func (b *SimBackend) releaseNext() {
	if b.waiting == 0 || len(b.held) < b.waiting {
		return
	}
	first := 0
	for i, h := range b.held {
		if h.end < b.held[first].end || (h.end == b.held[first].end && h.id < b.held[first].id) {
			first = i
		}
	}
	st := b.held[first]
	b.held = append(b.held[:first], b.held[first+1:]...)
	b.now = st.end
	b.waiting = 0
	close(st.release)
}
