package stormtune

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestPublicFleetRun drives a three-session fleet over one shared
// backend through the public API — recorders wired in, aggregated
// dashboard served — and checks the acceptance invariants: every
// session finishes its budget, the fleet-wide best is the max over
// sessions, and /api/fleet agrees with each session's /api/state.
func TestPublicFleetRun(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	backend := AsBackend(quietEval(top, SmallCluster()))
	steps := []int{6, 8, 5}
	members := make([]FleetMember, len(steps))
	recs := make([]*Recorder, len(steps))
	names := []string{"bo-1", "bo-2", "bo-3"}
	for i, n := range steps {
		opts := fastTunerOpts(int64(i+1), n)
		opts.Cluster = ptrCluster(SmallCluster())
		recs[i] = NewRecorder()
		opts.Recorder = recs[i]
		tn, err := NewTuner(top, backend, opts)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = FleetMember{Name: names[i], Tuner: tn, Weight: float64(i + 1)}
	}
	fleet, err := NewFleet(FleetOptions{Slots: 2}, members...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := fleet.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var wantBest float64
	for i, name := range names {
		tr, ok := results[name]
		if !ok {
			t.Fatalf("no result for %q", name)
		}
		if len(tr.Records) != steps[i] {
			t.Fatalf("%q ran %d trials, want %d", name, len(tr.Records), steps[i])
		}
		best, found := tr.Best()
		if !found {
			t.Fatalf("%q found no best", name)
		}
		if best.Result.Throughput > wantBest {
			wantBest = best.Result.Throughput
		}
		// The session's recorder saw the whole run.
		s := recs[i].Snapshot()
		if !s.Done || s.Completed != steps[i] {
			t.Fatalf("%q recorder: %+v", name, s)
		}
	}

	st := fleet.Status()
	if !st.Done || st.Best != wantBest {
		t.Fatalf("fleet status best %v done %v, want %v true", st.Best, st.Done, wantBest)
	}

	srv := httptest.NewServer(NewFleetDashboard(fleet, FleetDashboardOptions{Title: "public fleet"}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetState
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Best != wantBest || len(fs.Sessions) != 3 || !fs.Done {
		t.Fatalf("/api/fleet: %+v", fs)
	}
	for _, ss := range fs.Sessions {
		sresp, err := http.Get(srv.URL + ss.StateURL)
		if err != nil {
			t.Fatal(err)
		}
		var state struct {
			Completed int     `json:"completed"`
			Best      float64 `json:"best"`
			Done      bool    `json:"done"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&state); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if state.Completed != ss.Completed || state.Best != ss.Best || !state.Done {
			t.Fatalf("session %q: /api/fleet %+v vs /api/state %+v", ss.Name, ss, state)
		}
	}
}

// TestPublicFleetRejectsAskTellTuner pins the validation path: a fleet
// member whose tuner has no backend is rejected up front.
func TestPublicFleetRejectsAskTellTuner(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	tn, err := NewTuner(top, nil, fastTunerOpts(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet(FleetOptions{Slots: 1}, FleetMember{Name: "x", Tuner: tn}); err == nil {
		t.Fatal("fleet accepted an ask/tell-only tuner")
	}
	if _, err := NewFleet(FleetOptions{Slots: 1}, FleetMember{Name: "x"}); err == nil {
		t.Fatal("fleet accepted a nil tuner")
	}
}

// TestFleetOneTrialMembersMatchAcrossSlots pins the in-slot ask: members
// capped at one trial ask in their own slots at more than one slot and
// on the scheduler loop at one, and with sharing off each member's
// records are bit-identical at 1, 2 and 4 slots. A Status poller
// running throughout never sees more slots in flight than there are.
func TestFleetOneTrialMembersMatchAcrossSlots(t *testing.T) {
	top := BuildSynthetic("small", Condition{}, 1)
	backend := AsBackend(NewFluidSim(top, SmallCluster(), SinkTuples, 1))
	names := []string{"m1", "m2", "m3"}
	run := func(slots int) map[string]TuneResult {
		members := make([]FleetMember, len(names))
		for i, name := range names {
			opts := fastTunerOpts(int64(11+i), 6+i)
			opts.Cluster = ptrCluster(SmallCluster())
			tn, err := NewTuner(top, backend, opts)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = FleetMember{Name: name, Tuner: tn, MaxInFlight: 1}
		}
		fleet, err := NewFleet(FleetOptions{Slots: slots}, members...)
		if err != nil {
			t.Fatal(err)
		}
		var over atomic.Int32
		stop, polled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(polled)
			for {
				if st := fleet.Status(); st.InFlight > st.Slots {
					over.Store(int32(st.InFlight))
				}
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		}()
		results, err := fleet.Run(context.Background())
		close(stop)
		<-polled
		if err != nil {
			t.Fatal(err)
		}
		if n := over.Load(); n > 0 {
			t.Fatalf("slots %d: Status reported %d in flight", slots, n)
		}
		return results
	}
	want := run(1)
	for _, slots := range []int{2, 4} {
		got := run(slots)
		for i, name := range names {
			if len(got[name].Records) != 6+i {
				t.Fatalf("slots %d: %s ran %d trials, want %d", slots, name, len(got[name].Records), 6+i)
			}
			recordsEqual(t, want[name].Records, got[name].Records)
		}
	}
}
