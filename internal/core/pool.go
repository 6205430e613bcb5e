package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stormtune/internal/storm"
)

// fingerprintRouter is implemented by members that know which topology
// fingerprints they serve (the remote backend caches its server's
// registry). Members without it are assumed to serve everything — a
// local simulator backend measures whatever config it is handed.
type fingerprintRouter interface {
	Serves(fingerprint string) bool
}

// healthChecker is implemented by members that can be probed cheaply
// (the remote backend refetches /info). The pool re-probes evicted
// members through it before readmitting them; members without it are
// readmitted optimistically.
type healthChecker interface {
	CheckHealth(ctx context.Context) error
}

// NoServingMemberError reports a trial whose topology fingerprint no
// pool member serves — not even an evicted one. It is permanent: the
// pool's registry view will not change by retrying, so the session
// fails the trial immediately instead of burning its retry budget.
type NoServingMemberError struct {
	// Fingerprint is the routing key no member matched.
	Fingerprint string
	// Members labels the pool members consulted.
	Members []string
}

// Error implements error.
func (e *NoServingMemberError) Error() string {
	return fmt.Sprintf("core: no pool member serves topology fingerprint %q (members: %s)",
		e.Fingerprint, strings.Join(e.Members, ", "))
}

// Permanent marks the error as unretryable for the session's
// RetryPolicy.
func (e *NoServingMemberError) Permanent() bool { return true }

// AllMembersDownError reports that every member serving the trial's
// fingerprint is evicted and failed its re-probe. Unlike
// NoServingMemberError it is NOT permanent — workers come back — so the
// session's RetryPolicy paces further attempts.
type AllMembersDownError struct {
	// Fingerprint is the routing key whose servers are all down.
	Fingerprint string
}

// Error implements error.
func (e *AllMembersDownError) Error() string {
	return fmt.Sprintf("core: every pool member serving fingerprint %q is unreachable", e.Fingerprint)
}

// The pool's health constants.
const (
	// unhealthyAfter is the consecutive transport-failure count that
	// evicts a member. Evicted members receive no trials until a
	// re-probe succeeds.
	unhealthyAfter = 3
	// reprobeEvery re-probes evicted members in the background every
	// this many dispatches, so recovered workers rejoin even while
	// healthy members keep the pool serving.
	reprobeEvery = 16
	// probeTimeout bounds one health re-probe.
	probeTimeout = 2 * time.Second
)

// WorkerStats is one pool member's live counters.
type WorkerStats struct {
	// Worker labels the member: the remote backend's URL when it has
	// one, "worker-N" otherwise.
	Worker string `json:"worker"`
	// InFlight is the number of evaluations the member is running now.
	InFlight int `json:"inFlight"`
	// Completed counts evaluations that returned a measurement.
	Completed int64 `json:"completed"`
	// Errors counts evaluations the member lost (Backend.Run errors);
	// the session's RetryPolicy decides what happens next.
	Errors int64 `json:"errors"`
	// Shed counts admission refusals consumed from this member — trials
	// it declined at capacity that the pool re-routed elsewhere.
	Shed int64 `json:"shed,omitempty"`
	// Healthy is false while the member is evicted (consecutive
	// transport failures reached unhealthyAfter) and not yet
	// readmitted by a successful re-probe.
	Healthy bool `json:"healthy"`
}

type poolWorker struct {
	bk    Backend
	label string

	inFlight  atomic.Int64
	completed atomic.Int64
	errors    atomic.Int64
	shed      atomic.Int64

	// Guarded by the pool mutex.
	busy       bool
	evicted    bool
	consecFail int
	removed    bool
	probing    bool
}

// serves reports whether the member routes the fingerprint; members
// without routing knowledge accept everything.
func (w *poolWorker) serves(fingerprint string) bool {
	if r, ok := w.bk.(fingerprintRouter); ok {
		return r.Serves(fingerprint)
	}
	return true
}

// PoolBackend fans concurrent trials out over a set of member backends,
// routing each trial to a member serving its topology fingerprint and
// shedding it to a less-loaded member when a worker refuses at
// capacity. Members can join (Add) and leave (Remove) a live pool, and
// members whose transport keeps failing are evicted until a re-probe
// succeeds. See NewPoolBackend.
type PoolBackend struct {
	mu        sync.Mutex
	cond      *sync.Cond
	workers   []*poolWorker
	nextLabel int
	dispatch  int64
}

// errAllTried is acquire's internal signal: every healthy member
// serving the fingerprint refused this round at capacity — back off
// briefly and try the round again.
var errAllTried = errors.New("core: all serving members refused at capacity")

// NewPoolBackend distributes concurrent trials over a pool of member
// backends: each Run borrows a free member serving the trial's topology
// fingerprint, so a session driving q concurrent trials (RunAsync or
// RunBatch) saturates up to q workers — and a fleet of heterogeneous
// sessions shares one worker pool, each trial routed to a worker
// registered for its topology. Run blocks until an eligible member is
// free or ctx is done. The returned pool satisfies Backend and
// additionally exposes per-worker counters through Stats — the
// dashboard's "workers" table.
func NewPoolBackend(members ...Backend) (*PoolBackend, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: pool backend needs at least one member")
	}
	p := &PoolBackend{}
	p.cond = sync.NewCond(&p.mu)
	for i, b := range members {
		if b == nil {
			return nil, fmt.Errorf("core: pool backend member %d is nil", i)
		}
		p.Add(b)
	}
	return p, nil
}

// Add joins a member to the live pool; trials routable to it are
// dispatched from the next acquisition on.
func (p *PoolBackend) Add(bk Backend) {
	p.mu.Lock()
	defer p.mu.Unlock()
	label := fmt.Sprintf("worker-%d", p.nextLabel)
	p.nextLabel++
	// A remote backend knows its server address; prefer it as the
	// human-readable label.
	if u, ok := bk.(interface{ URL() string }); ok {
		label = u.URL()
	}
	p.workers = append(p.workers, &poolWorker{bk: bk, label: label})
	p.cond.Broadcast()
}

// Remove detaches the member with the given label (its URL or
// "worker-N") from the live pool. An evaluation already running on it
// completes; no new trial is dispatched to it. Reports whether a member
// matched.
func (p *PoolBackend) Remove(label string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if w.label == label && !w.removed {
			w.removed = true
			p.cond.Broadcast()
			return true
		}
	}
	return false
}

// Size returns the number of attached (non-removed) pool members.
func (p *PoolBackend) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if !w.removed {
			n++
		}
	}
	return n
}

// Stats samples every attached member's counters, in join order. It is
// safe to call concurrently with Run — the dashboard polls it while
// trials are in flight.
func (p *PoolBackend) Stats() []WorkerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerStats, 0, len(p.workers))
	for _, w := range p.workers {
		if w.removed {
			continue
		}
		out = append(out, WorkerStats{
			Worker:    w.label,
			InFlight:  int(w.inFlight.Load()),
			Completed: w.completed.Load(),
			Errors:    w.errors.Load(),
			Shed:      w.shed.Load(),
			Healthy:   !w.evicted,
		})
	}
	return out
}

// Run implements Backend: route the trial to a free member serving its
// fingerprint and evaluate there. A member refusing at capacity
// (admission control) costs nothing — the trial is shed to the next
// eligible member, or, when every serving member refused this round,
// re-offered after the smallest advertised Retry-After. Transport
// failures count toward the member's eviction and surface to the
// session's RetryPolicy as a lost measurement.
func (p *PoolBackend) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	// Wake any acquire wait when the caller gives up.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()

	p.maybeReprobe()

	tried := make(map[*poolWorker]bool)
	var backoff time.Duration
	for {
		w, err := p.acquire(ctx, tr.Fingerprint, tried)
		if errors.Is(err, errAllTried) {
			// Every serving member is at capacity: wait out the smallest
			// hint they gave, then offer the round again.
			if backoff <= 0 {
				backoff = 100 * time.Millisecond
			}
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return storm.Result{}, ctx.Err()
			case <-t.C:
			}
			tried = make(map[*poolWorker]bool)
			backoff = 0
			continue
		}
		if err != nil {
			return storm.Result{}, err
		}
		res, err := p.runOn(ctx, w, tr)
		if err != nil && isOverloadedErr(err) && ctx.Err() == nil {
			// Admission refusal: nothing ran, shed to the next member.
			w.shed.Add(1)
			tried[w] = true
			if hint := retryAfterHint(err); hint > 0 && (backoff == 0 || hint < backoff) {
				backoff = hint
			}
			continue
		}
		return res, err
	}
}

// acquire picks a free, healthy member serving the fingerprint,
// preferring the least-loaded (fewest completions), and marks it busy.
// It blocks while every candidate is busy, re-probes when every serving
// member is evicted, and returns errAllTried when the only free
// candidates already refused this round.
func (p *PoolBackend) acquire(ctx context.Context, fingerprint string, tried map[*poolWorker]bool) (*poolWorker, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pick *poolWorker
		serving, healthy, waitWorthy := 0, 0, false
		var downed []*poolWorker
		for _, w := range p.workers {
			if w.removed || !w.serves(fingerprint) {
				continue
			}
			serving++
			if w.evicted {
				downed = append(downed, w)
				continue
			}
			healthy++
			if tried[w] {
				continue
			}
			if w.busy {
				waitWorthy = true
				continue
			}
			if pick == nil || w.completed.Load() < pick.completed.Load() {
				pick = w
			}
		}
		if pick != nil {
			pick.busy = true
			return pick, nil
		}
		if serving == 0 {
			labels := make([]string, 0, len(p.workers))
			for _, w := range p.workers {
				if !w.removed {
					labels = append(labels, w.label)
				}
			}
			sort.Strings(labels)
			return nil, &NoServingMemberError{Fingerprint: fingerprint, Members: labels}
		}
		if healthy == 0 {
			// Everything serving this topology is evicted: re-probe now,
			// outside the lock, and re-evaluate.
			p.mu.Unlock()
			readmitted := p.reprobe(downed)
			p.mu.Lock()
			if readmitted == 0 {
				return nil, &AllMembersDownError{Fingerprint: fingerprint}
			}
			continue
		}
		if !waitWorthy {
			// Healthy members exist but each free one already refused at
			// capacity this round.
			return nil, errAllTried
		}
		p.cond.Wait()
	}
}

// runOn evaluates the trial on the acquired member, maintaining its
// counters and health state, and releases it.
func (p *PoolBackend) runOn(ctx context.Context, w *poolWorker, tr Trial) (storm.Result, error) {
	defer func() {
		p.mu.Lock()
		w.busy = false
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	start := time.Now()
	res, err := w.bk.Run(ctx, tr)
	p.noteHealth(w, err)
	switch {
	case err == nil:
		w.completed.Add(1)
	case isOverloadedErr(err):
		// An admission refusal is neither a completion nor a loss; the
		// caller counts it as shed.
	case ctx.Err() == nil:
		// Worker-originated failure: the context is intact, the
		// member lost the measurement on its own.
		w.errors.Add(1)
	case tr.Timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) &&
		time.Since(start) >= tr.Timeout*9/10:
		// The trial's deadline expired while this member held it for
		// essentially the whole budget: the member was too slow — a
		// loss chargeable to it. The duration guard keeps the common
		// non-worker causes out of the count (a deadline mostly
		// consumed queueing for a free member; a session-wide
		// deadline cutting an evaluation short); a session deadline
		// that happens to expire within the trial budget's final
		// tenth is still misattributed — a bounded, accepted
		// imprecision. A plain cancellation says nothing about the
		// member and counts nowhere.
		w.errors.Add(1)
	}
	return res, err
}

// noteHealth updates the member's eviction state from one evaluation
// outcome: transport failures accumulate toward eviction, anything that
// reached the server resets the streak.
func (p *PoolBackend) noteHealth(w *poolWorker, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil && isUnreachableErr(err) {
		w.consecFail++
		if w.consecFail >= unhealthyAfter {
			w.evicted = true
		}
		return
	}
	w.consecFail = 0
}

// maybeReprobe kicks off a background re-probe of evicted members every
// reprobeEvery dispatches, so recovered workers rejoin a pool that is
// otherwise healthy enough to never block on them.
func (p *PoolBackend) maybeReprobe() {
	p.mu.Lock()
	p.dispatch++
	due := p.dispatch%reprobeEvery == 0
	var evicted []*poolWorker
	if due {
		for _, w := range p.workers {
			if w.evicted && !w.removed && !w.probing {
				evicted = append(evicted, w)
			}
		}
	}
	p.mu.Unlock()
	if len(evicted) > 0 {
		go p.reprobe(evicted)
	}
}

// reprobe checks each candidate's health and readmits the ones that
// answer (or, for members without a CheckHealth probe, readmits
// optimistically — the next transport failure evicts them again).
// Returns how many members were readmitted.
func (p *PoolBackend) reprobe(candidates []*poolWorker) int {
	readmitted := 0
	for _, w := range candidates {
		p.mu.Lock()
		if w.probing || w.removed || !w.evicted {
			p.mu.Unlock()
			continue
		}
		w.probing = true
		p.mu.Unlock()

		ok := true
		if hc, isChecker := w.bk.(healthChecker); isChecker {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			ok = hc.CheckHealth(ctx) == nil
			cancel()
		}

		p.mu.Lock()
		w.probing = false
		if ok {
			w.evicted = false
			w.consecFail = 0
			readmitted++
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
	return readmitted
}
