package stormtune

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stormtune/internal/storm"
)

// statelessFaultBackend injects a deterministic, crash-independent
// fault pattern: the first evaluation attempt of every third trial is
// lost; the retry succeeds. Because the injection depends only on
// (trial ID, attempt) — no in-process state — a resumed run sees the
// exact same faults the uninterrupted reference did, even for a trial
// captured mid-retry.
type statelessFaultBackend struct{ inner Backend }

func (b statelessFaultBackend) Run(ctx context.Context, tr Trial) (storm.Result, error) {
	if tr.ID%3 == 0 && tr.Attempt == 1 {
		return storm.Result{}, fmt.Errorf("injected: trial %d attempt 1 lost", tr.ID)
	}
	return b.inner.Run(ctx, tr)
}

// resumeFleet is the two-member fleet the kill/resume tests run:
// stateless injected faults, and MaxInFlight 1 so each member's record
// sequence is independent of fleet scheduling — the determinism resume
// relies on.
type resumeFleet struct {
	t     *testing.T
	top   *Topology
	names []string
	seeds []int64
	steps []int
}

func newResumeFleet(t *testing.T) *resumeFleet {
	return &resumeFleet{
		t:     t,
		top:   BuildSynthetic("small", Condition{}, 1),
		names: []string{"alpha", "beta"},
		seeds: []int64{3, 7},
		steps: []int{7, 5},
	}
}

func (r *resumeFleet) backend() Backend {
	return statelessFaultBackend{inner: AsBackend(quietEval(r.top, SmallCluster()))}
}

func (r *resumeFleet) build(i int, extra Observer) FleetMember {
	opts := fastTunerOpts(r.seeds[i], r.steps[i])
	opts.Cluster = ptrCluster(SmallCluster())
	opts.Retry = RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}
	opts.Observer = extra
	tn, err := NewTuner(r.top, r.backend(), opts)
	if err != nil {
		r.t.Fatal(err)
	}
	return FleetMember{Name: r.names[i], Tuner: tn, MaxInFlight: 1}
}

// reference runs the fleet uninterrupted, logging to logPath when it
// is not empty.
func (r *resumeFleet) reference(logPath string) map[string]TuneResult {
	opts := FleetOptions{Slots: 2}
	if logPath != "" {
		flog, err := CreateFleetLog(logPath)
		if err != nil {
			r.t.Fatal(err)
		}
		defer flog.Close()
		opts.Log = flog
	}
	ref, err := NewFleet(opts, r.build(0, nil), r.build(1, nil))
	if err != nil {
		r.t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	if opts.Log != nil {
		if err := opts.Log.Err(); err != nil {
			r.t.Fatal(err)
		}
	}
	for i, name := range r.names {
		if len(want[name].Records) != r.steps[i] {
			r.t.Fatalf("reference %q ran %d records, want %d", name, len(want[name].Records), r.steps[i])
		}
	}
	return want
}

// finish runs the resumed members to completion on flog.
func (r *resumeFleet) finish(flog *FleetLog, members []FleetMember) map[string]TuneResult {
	fleet, err := NewFleet(FleetOptions{Slots: 2, Log: flog}, members...)
	if err != nil {
		r.t.Fatal(err)
	}
	got, err := fleet.Run(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	if err := flog.Err(); err != nil {
		r.t.Fatalf("resumed fleet log error: %v", err)
	}
	return got
}

// check requires every member's records and incumbent to equal the
// reference bit for bit.
func (r *resumeFleet) check(want, got map[string]TuneResult) {
	t := r.t
	t.Helper()
	for _, name := range r.names {
		recordsEqual(t, want[name].Records, got[name].Records)
		if want[name].BestStep != got[name].BestStep {
			t.Fatalf("%q best step %d, want %d", name, got[name].BestStep, want[name].BestStep)
		}
		wb, _ := want[name].Best()
		gb, _ := got[name].Best()
		if wb.Config.Fingerprint() != gb.Config.Fingerprint() {
			t.Fatalf("%q incumbent diverged after resume", name)
		}
	}
}

// TestPublicFleetKillResumeBitIdentical is the crash-safety acceptance
// pin: a fleet persisting to a FleetLog, killed mid-run (log abandoned
// un-Closed, a torn half-record appended as a crash mid-write would),
// resumes from the recovered log and finishes with every member's
// record sequence and incumbent bit-identical to an uninterrupted
// reference run — injected retries included.
func TestPublicFleetKillResumeBitIdentical(t *testing.T) {
	rf := newResumeFleet(t)
	top, names, build, backend := rf.top, rf.names, rf.build, rf.backend

	// Reference: uninterrupted, no log.
	want := rf.reference("")

	// Run 1: logged, killed after alpha's third completion.
	path := filepath.Join(t.TempDir(), "fleet.log")
	flog, err := CreateFleetLog(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	completed := 0
	killer := ObserverFunc(func(e Event) {
		if _, ok := e.(TrialCompleted); ok {
			mu.Lock()
			completed++
			if completed == 3 {
				cancel()
			}
			mu.Unlock()
		}
	})
	fleet1, err := NewFleet(FleetOptions{Slots: 2, Log: flog}, build(0, killer), build(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run err = %v, want context.Canceled", err)
	}
	if err := flog.Err(); err != nil {
		t.Fatalf("fleet log hit a write error before the kill: %v", err)
	}
	// Crash: the log is never Closed (buffered events die with the
	// process), and the process died mid-append — half a record, no
	// newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"event","member":"alpha","seq":99,"ev`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: recover the log and resume every member.
	flog2, err := OpenFleetLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer flog2.Close()
	if got := flog2.Members(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("recovered members = %v", got)
	}
	members := make([]FleetMember, len(names))
	for i, name := range names {
		st, err := flog2.MemberState(name)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil {
			t.Fatalf("no snapshot recovered for %q: the attach-time snapshot guarantees one", name)
		}
		// Retry policy and budget travel in the snapshot; resume needs
		// only topology + backend.
		tn, err := ResumeTuner(st, top, backend(), TunerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = FleetMember{Name: name, Tuner: tn, MaxInFlight: 1}
	}
	rf.check(want, rf.finish(flog2, members))
}

// TestPublicFleetResumeFromEveryCut cuts a finished two-member fleet
// log at every record boundary after the first snapshot, and in the
// middle of every record after it (a torn tail), as a crash can leave
// it: resuming from each cut must finish bit-identical to the
// uninterrupted run. A member without a snapshot in the cut is tuned
// fresh, as FleetLog.MemberState documents.
func TestPublicFleetResumeFromEveryCut(t *testing.T) {
	rf := newResumeFleet(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	want := rf.reference(full)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Index(data, []byte(`{"kind":"snapshot"`))
	if first < 0 {
		t.Fatal("the logged run wrote no snapshot")
	}
	var cuts []int
	for off := first; off < len(data); {
		end := off + bytes.IndexByte(data[off:], '\n') + 1
		cuts = append(cuts, (off+end)/2, end)
		off = end
	}
	path := filepath.Join(dir, "fleet.log")
	for _, cut := range cuts {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		flog, err := OpenFleetLog(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		members := make([]FleetMember, len(rf.names))
		for i, name := range rf.names {
			st, err := flog.MemberState(name)
			if err != nil {
				t.Fatal(err)
			}
			if st == nil {
				members[i] = rf.build(i, nil)
				continue
			}
			tn, err := ResumeTuner(st, rf.top, rf.backend(), TunerOptions{})
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			members[i] = FleetMember{Name: name, Tuner: tn, MaxInFlight: 1}
		}
		rf.check(want, rf.finish(flog, members))
		if err := flog.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
