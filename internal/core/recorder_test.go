package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stormtune/internal/storm"
)

func cfgN(hint int) storm.Config {
	return storm.Config{Hints: []int{hint}}
}

func ok(tput float64) storm.Result { return storm.Result{Throughput: tput} }

// TestRecorderDerivedState walks a Recorder through a scripted session
// — successes, a new best, a retried trial, a permanent failure — and
// checks every piece of derived state.
func TestRecorderDerivedState(t *testing.T) {
	r := NewRecorder()

	t1 := Trial{ID: 1, RunIndex: 1, Config: cfgN(1)}
	t2 := Trial{ID: 2, RunIndex: 2, Config: cfgN(2)}
	t3 := Trial{ID: 3, RunIndex: 3, Config: cfgN(3)}

	r.OnEvent(TrialStarted{Trial: t1})
	if s := r.Snapshot(); s.Running != 1 || len(s.Trials) != 1 || s.Trials[0].Status != StatusRunning {
		t.Fatalf("after start: %+v", s)
	}
	r.OnEvent(TrialCompleted{Trial: t1, Result: ok(100)})
	r.OnEvent(NewBest{Trial: t1, Result: ok(100)})

	// Trial 2: one lost attempt, then a success that beats the best.
	r.OnEvent(TrialStarted{Trial: t2})
	lost := errors.New("connection reset")
	r.OnEvent(TrialFailed{Trial: t2, Attempt: 1, Err: lost})
	r.OnEvent(TrialRetried{Trial: t2, Attempt: 2, Backoff: 10 * time.Millisecond, Err: lost})
	if s := r.Snapshot(); s.Retrying != 1 || s.Retries != 1 {
		t.Fatalf("mid-retry: retrying=%d retries=%d", s.Retrying, s.Retries)
	}
	r.OnEvent(TrialCompleted{Trial: t2, Result: ok(250)})
	r.OnEvent(NewBest{Trial: t2, Result: ok(250)})

	// Trial 3: permanent failure → pessimistic completed record.
	r.OnEvent(TrialStarted{Trial: t3})
	r.OnEvent(TrialFailed{Trial: t3, Attempt: 2, Err: lost, Permanent: true})
	r.OnEvent(TrialCompleted{Trial: t3, Result: storm.FailedResult(storm.FailureEvaluation, lost.Error())})
	r.OnEvent(PassCompleted{Steps: 3, Found: true})

	s := r.Snapshot()
	if !s.Done {
		t.Fatal("pass_completed not reflected")
	}
	if s.Completed != 3 || s.FailedN != 1 || s.Running != 0 || s.Retrying != 0 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Best != 250 || s.BestTrial != 2 {
		t.Fatalf("incumbent: best=%v trial=%d", s.Best, s.BestTrial)
	}
	byID := map[int]TrialView{}
	for _, tv := range s.Trials {
		byID[tv.ID] = tv
	}
	if byID[1].Status != StatusDone || byID[1].Best {
		t.Fatalf("trial 1: %+v", byID[1])
	}
	if !byID[2].Best || byID[2].Attempts != 2 {
		t.Fatalf("trial 2: %+v", byID[2])
	}
	if byID[3].Status != StatusFailed || byID[3].Failure != string(storm.FailureEvaluation) {
		t.Fatalf("trial 3: %+v", byID[3])
	}
	wantCurve := []float64{100, 250, 250}
	if len(s.Incumbent) != len(wantCurve) {
		t.Fatalf("curve has %d points, want %d", len(s.Incumbent), len(wantCurve))
	}
	for i, p := range s.Incumbent {
		if p.Best != wantCurve[i] || p.Step != i+1 {
			t.Fatalf("curve[%d] = %+v, want best %v", i, p, wantCurve[i])
		}
	}
	trace := r.IncumbentTrace()
	if len(trace) != 2 || trace[0].TrialID != 1 || trace[1].TrialID != 2 {
		t.Fatalf("trace: %+v", trace)
	}

	// Event history: sequential IDs, kinds in emission order.
	evs, wait := r.EventsSince(0)
	if wait != nil || len(evs) != 12 {
		t.Fatalf("history: %d events (wait=%v)", len(evs), wait)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[0].Kind != KindTrialStarted || evs[11].Kind != KindPassCompleted {
		t.Fatalf("kinds: first %s last %s", evs[0].Kind, evs[11].Kind)
	}

	// Replay-from-ID returns exactly the suffix.
	tail, _ := r.EventsSince(10)
	if len(tail) != 2 || tail[0].Seq != 11 {
		t.Fatalf("suffix after 10: %+v", tail)
	}
}

// TestRecorderEventsSinceWait verifies the blocking follow primitive:
// with the history drained, EventsSince hands back a channel that is
// closed by the next event.
func TestRecorderEventsSinceWait(t *testing.T) {
	r := NewRecorder()
	evs, wait := r.EventsSince(0)
	if len(evs) != 0 || wait == nil {
		t.Fatalf("empty recorder: evs=%d wait=%v", len(evs), wait)
	}
	select {
	case <-wait:
		t.Fatal("wait channel closed before any event")
	default:
	}
	go r.OnEvent(TrialStarted{Trial: Trial{ID: 1, RunIndex: 1, Config: cfgN(1)}})
	select {
	case <-wait:
	case <-time.After(2 * time.Second):
		t.Fatal("wait channel not closed by the event")
	}
	evs, wait = r.EventsSince(0)
	if len(evs) != 1 || wait != nil {
		t.Fatalf("after event: evs=%d wait=%v", len(evs), wait)
	}
	// A cursor beyond this recorder's history is stale (a reconnecting
	// subscriber from a previous run) and resets to a full replay.
	evs, _ = r.EventsSince(400)
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("stale cursor should replay from the start: %+v", evs)
	}
}

// TestRecorderConcurrentAccess hammers one Recorder from writer and
// reader goroutines; run with -race this is the Recorder's
// thread-safety proof.
func TestRecorderConcurrentAccess(t *testing.T) {
	r := NewRecorder()
	const writers, trialsPerWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < trialsPerWriter; i++ {
				id := w*trialsPerWriter + i + 1
				tr := Trial{ID: id, RunIndex: id, Config: cfgN(id)}
				r.OnEvent(TrialStarted{Trial: tr})
				r.OnEvent(TrialCompleted{Trial: tr, Result: ok(float64(id))})
			}
		}(w)
	}
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				_ = s.Trials
				evs, _ := r.EventsSince(cursor)
				if len(evs) > 0 {
					cursor = evs[len(evs)-1].Seq
				}
				r.IncumbentTrace()
			}
		}()
	}
	// Writers finish, then stop the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		// Readers loop until stop; writers are the first 4 Adds. Give
		// them a deadline so a deadlock fails the test instead of
		// hanging it.
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent access deadlocked")
	}
	s := r.Snapshot()
	if got := len(s.Trials); got != writers*trialsPerWriter {
		t.Fatalf("lost trials: %d of %d", got, writers*trialsPerWriter)
	}
	if s.Events != int64(2*writers*trialsPerWriter) {
		t.Fatalf("lost events: %d", s.Events)
	}
	if s.Best != float64(writers*trialsPerWriter) {
		t.Fatalf("best = %v", s.Best)
	}
}

// TestRecorderPrime replays a real session's snapshot into a fresh
// Recorder and checks it reconstructs the live Recorder's incumbent
// trace and trial table (statuses included).
func TestRecorderPrime(t *testing.T) {
	live := NewRecorder()
	sess := NewSession(&scriptedStrategy{n: 6}, scriptedBackend{}, SessionOptions{
		MaxSteps: 6, Observer: live,
	})
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sess.Snapshot()

	primed := NewRecorder()
	primed.Prime(st)

	lt, pt := live.IncumbentTrace(), primed.IncumbentTrace()
	if len(lt) != len(pt) {
		t.Fatalf("trace lengths differ: live %d primed %d", len(lt), len(pt))
	}
	for i := range lt {
		if lt[i].TrialID != pt[i].TrialID || lt[i].Best != pt[i].Best || lt[i].Step != pt[i].Step {
			t.Fatalf("trace[%d]: live %+v primed %+v", i, lt[i], pt[i])
		}
	}
	ls, ps := live.Snapshot(), primed.Snapshot()
	if ls.Best != ps.Best || ls.BestTrial != ps.BestTrial || ls.Completed != ps.Completed {
		t.Fatalf("snapshots differ: live %+v primed %+v", ls, ps)
	}
	for i := range ls.Trials {
		l, p := ls.Trials[i], ps.Trials[i]
		if l.ID != p.ID || l.Status != p.Status || l.Throughput != p.Throughput || l.Failed != p.Failed {
			t.Fatalf("trial %d differs: live %+v primed %+v", l.ID, l, p)
		}
		if !p.Replayed {
			t.Fatalf("primed trial %d not marked replayed", p.ID)
		}
	}

	// Priming a non-empty recorder is a no-op — both the re-primed copy
	// and the live recorder (in-process resume) must not duplicate.
	primed.Prime(st)
	live.Prime(st)
	if s := primed.Snapshot(); s.Events != ps.Events || len(s.Trials) != len(ps.Trials) {
		t.Fatalf("re-prime duplicated history: %d events, was %d", s.Events, ps.Events)
	}
	if s := live.Snapshot(); s.Events != ls.Events {
		t.Fatalf("priming the live recorder duplicated history: %d events, was %d", s.Events, ls.Events)
	}
}

// TestRecorderPrimePending carries a pending trial through Prime.
func TestRecorderPrimePending(t *testing.T) {
	st := &SessionState{
		Version: 1, Strategy: "scripted", MaxSteps: 5, Issued: 2,
		Records: []RecordState{{Step: 1, Config: cfgN(1), Result: ok(10)}},
		Pending: []TrialState{{ID: 2, Config: cfgN(2), Attempt: 1}},
		Ops:     []SessionOp{{Ask: 1}, {Tell: 1}, {Ask: 1}},
	}
	r := NewRecorder()
	r.Prime(st)
	s := r.Snapshot()
	if s.Pending != 1 || s.Completed != 1 {
		t.Fatalf("counters: %+v", s)
	}
	var pend TrialView
	for _, tv := range s.Trials {
		if tv.ID == 2 {
			pend = tv
		}
	}
	if pend.Status != StatusPending || pend.Attempts != 1 {
		t.Fatalf("pending trial: %+v", pend)
	}
}

// TestMultiObserver checks fan-out order and nil handling.
func TestMultiObserver(t *testing.T) {
	if MultiObserver() != nil || MultiObserver(nil, nil) != nil {
		t.Fatal("empty composition should be nil")
	}
	var got []string
	a := ObserverFunc(func(Event) { got = append(got, "a") })
	b := ObserverFunc(func(Event) { got = append(got, "b") })
	if single := MultiObserver(nil, a); single == nil {
		t.Fatal("single composition dropped the observer")
	}
	m := MultiObserver(a, nil, b)
	m.OnEvent(PassCompleted{})
	m.OnEvent(PassCompleted{})
	want := []string{"a", "b", "a", "b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

// scriptedStrategy proposes n fixed configurations with varying quality
// so the incumbent moves more than once.
type scriptedStrategy struct {
	n, i int
}

func (s *scriptedStrategy) Name() string { return "scripted" }
func (s *scriptedStrategy) Next() (storm.Config, bool) {
	if s.i >= s.n {
		return storm.Config{}, false
	}
	s.i++
	return cfgN(s.i), true
}
func (s *scriptedStrategy) Observe(storm.Config, storm.Result) {}
func (s *scriptedStrategy) DecisionTime() time.Duration        { return 0 }

// scriptedBackend maps hint → throughput with a dip so not every trial
// is a new best, and one placement failure.
type scriptedBackend struct{}

func (scriptedBackend) Run(_ context.Context, tr Trial) (storm.Result, error) {
	h := tr.Config.Hints[0]
	if h == 4 {
		return storm.FailedResult(storm.FailurePlacement, "unplaceable"), nil
	}
	tputs := map[int]float64{1: 100, 2: 80, 3: 300, 5: 120, 6: 350}
	return ok(tputs[h]), nil
}
