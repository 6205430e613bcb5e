package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"stormtune/internal/scheduler"
	"stormtune/internal/storm"
)

// FleetMember is one tuning session of a Fleet: a name (the dashboard
// URL segment and result key), the session itself, its fair-share
// weight, an optional per-session in-flight cap, and the Recorder the
// fleet's aggregated status reads (nil disables per-session derived
// state in FleetStatus and the dashboard drill-down).
type FleetMember struct {
	// Name identifies the session; fleet member names must be unique
	// and non-empty.
	Name string
	// Session is the session to drive. It must have a backend (fleet
	// members cannot be ask/tell-only) and must not be driven by any
	// other caller while the fleet runs.
	Session *Session
	// Weight scales the member's share of slot grants (≤ 0 means 1):
	// with weights 1 and 3 the second session receives three out of
	// every four grants both sessions compete for.
	Weight float64
	// MaxInFlight caps the member's own concurrent trials — the
	// cluster's concurrent-trial capacity for its template
	// configuration; 0 means bounded only by the fleet's slots.
	MaxInFlight int
	// Recorder, when set, is the session's Recorder (already wired into
	// its observer chain); the fleet aggregates its derived state into
	// FleetStatus and the dashboard serves it for drill-down.
	Recorder *Recorder
}

// FleetOptions configure a Fleet.
type FleetOptions struct {
	// Slots is the total number of trials in flight across all sessions
	// at any instant — the shared worker pool's capacity. Values below
	// 1 mean 1.
	Slots int
	// ShareIncumbents propagates each member's new-best configuration
	// to every sibling at report boundaries: the fleet keeps a ranked
	// pool of member incumbents (best throughput first) and pushes it
	// into each sibling's BO strategy as shared candidate seeds — a
	// NewBest in one member re-ranks the others' warm-start pools
	// mid-run. Members whose strategy is not BO-based, or whose
	// parameter space cannot represent a sibling's configuration,
	// ignore the pool.
	ShareIncumbents bool
}

// FleetSessionStatus is one member's entry in a FleetStatus.
type FleetSessionStatus struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// InFlight is the number of shared slots the session holds right
	// now; MaxInFlight is its own cap (0 = bounded only by the fleet).
	InFlight    int `json:"inFlight"`
	MaxInFlight int `json:"maxInFlight,omitempty"`
	// Done reports that the session has drained: it will issue no
	// further trials and none are in flight.
	Done bool `json:"done"`
	// The remaining fields are derived from the member's Recorder and
	// absent (zero) without one: trials seen, completions (failures
	// included), failures, retries, the incumbent, and the session
	// wall-clock.
	Trials    int     `json:"trials"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failedTrials,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Best      float64 `json:"best"`
	BestTrial int     `json:"bestTrial,omitempty"`
	ElapsedMS int64   `json:"elapsedMs"`
}

// FleetStatus is the cross-session state of a fleet at one instant.
type FleetStatus struct {
	// Slots and InFlight are the shared capacity and its current
	// occupancy; InFlight never exceeds Slots.
	Slots    int `json:"slots"`
	InFlight int `json:"inFlight"`
	// Sessions holds one entry per member, in construction order.
	Sessions []FleetSessionStatus `json:"sessions"`
	// Best is the best throughput over all sessions; BestSession names
	// the session holding it (empty while every trial has failed).
	Best        float64 `json:"best"`
	BestSession string  `json:"bestSession,omitempty"`
	// Done reports that every session has drained.
	Done bool `json:"done"`
}

// Fleet drives several independent tuning sessions concurrently over
// one shared pool of evaluation slots. A fleet-level scheduler grants
// each freed slot to one session — weighted fair share via stride
// scheduling, so no session hogs the pool and none starves — and the
// total number of in-flight trials never exceeds FleetOptions.Slots:
// sized to the shared worker pool's capacity, the workers are saturated
// but never oversubscribed.
//
// Each member keeps its own Session (and usually its own Recorder);
// the fleet only owns slot allocation and cross-session aggregation
// (Status). Run may be called once.
type Fleet struct {
	mu       sync.Mutex
	members  []FleetMember
	slots    int
	inflight []int
	finished []bool
	results  map[string]TuneResult
	started  bool

	// Incumbent-sharing state; confined to the scheduler loop
	// goroutine (Done hooks run serialized there), so unlocked.
	share     bool
	shareBest []float64
	shareCfg  []storm.Config
}

// NewFleet validates the members and builds a fleet. Member names must
// be unique and non-empty, and every session needs a backend.
func NewFleet(opts FleetOptions, members ...FleetMember) (*Fleet, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	for i, m := range members {
		if m.Name == "" {
			return nil, fmt.Errorf("core: fleet member %d has no name", i)
		}
		if !validFleetName(m.Name) {
			return nil, fmt.Errorf("core: fleet member name %q: use letters, digits, '.', '_' and '-' (it becomes a dashboard URL segment)", m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("core: duplicate fleet member name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Session == nil {
			return nil, fmt.Errorf("core: fleet member %q has no session", m.Name)
		}
		if m.Session.bk == nil {
			return nil, fmt.Errorf("core: fleet member %q: %w", m.Name, ErrNoBackend)
		}
	}
	slots := opts.Slots
	if slots < 1 {
		slots = 1
	}
	return &Fleet{
		members:   append([]FleetMember(nil), members...),
		slots:     slots,
		inflight:  make([]int, len(members)),
		finished:  make([]bool, len(members)),
		results:   make(map[string]TuneResult, len(members)),
		share:     opts.ShareIncumbents,
		shareBest: make([]float64, len(members)),
		shareCfg:  make([]storm.Config, len(members)),
	}, nil
}

// validFleetName keeps member names usable as dashboard URL path
// segments without escaping.
func validFleetName(name string) bool {
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Slots returns the fleet's shared slot capacity.
func (f *Fleet) Slots() int { return f.slots }

// Members returns the fleet's members, in construction order.
func (f *Fleet) Members() []FleetMember {
	return append([]FleetMember(nil), f.members...)
}

// Member returns the member with the given name.
func (f *Fleet) Member(name string) (FleetMember, bool) {
	for _, m := range f.members {
		if m.Name == name {
			return m, true
		}
	}
	return FleetMember{}, false
}

// Status samples the cross-session state: per-session slot occupancy
// and recorder-derived progress, plus the fleet-wide incumbent. Safe to
// call at any time, including while Run is in flight — the dashboard
// polls it.
func (f *Fleet) Status() FleetStatus {
	f.mu.Lock()
	inflight := append([]int(nil), f.inflight...)
	finished := append([]bool(nil), f.finished...)
	f.mu.Unlock()
	st := FleetStatus{Slots: f.slots, Done: true}
	for i, m := range f.members {
		ss := FleetSessionStatus{
			Name: m.Name, Weight: weightOf(m.Weight), InFlight: inflight[i],
			MaxInFlight: m.MaxInFlight, Done: finished[i],
		}
		if m.Recorder != nil {
			rs := m.Recorder.Stats()
			ss.Trials = rs.Trials
			ss.Completed = rs.Completed
			ss.Failed = rs.Failed
			ss.Retries = rs.Retries
			ss.Best = rs.Best
			ss.BestTrial = rs.BestTrial
			ss.ElapsedMS = rs.ElapsedMS
		}
		st.InFlight += ss.InFlight
		if !ss.Done {
			st.Done = false
		}
		if ss.Best > st.Best {
			st.Best = ss.Best
			st.BestSession = m.Name
		}
		st.Sessions = append(st.Sessions, ss)
	}
	return st
}

func weightOf(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

// Results returns the per-session summaries of the members that have
// finished so far, keyed by member name; after Run returns it covers
// every member.
func (f *Fleet) Results() map[string]TuneResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]TuneResult, len(f.results))
	for k, v := range f.results {
		out[k] = v
	}
	return out
}

// finishMember records a drained session's summary (emitting its
// PassCompleted) exactly once.
func (f *Fleet) finishMember(i int) {
	f.mu.Lock()
	if f.finished[i] {
		f.mu.Unlock()
		return
	}
	f.finished[i] = true
	f.mu.Unlock()
	res, _ := f.members[i].Session.finish(nil)
	f.mu.Lock()
	f.results[f.members[i].Name] = res
	f.mu.Unlock()
}

// Run drives every session to completion — budgets spent, strategies
// exhausted, stopping rules fired — or until ctx is cancelled, sharing
// the fleet's slots among them. It returns the per-session summaries
// keyed by member name; on cancellation the partial results are
// returned with ctx's error, and each session's in-flight trials stay
// pending (their snapshots carry them, exactly as with the
// single-session drivers). Run may be called once.
func (f *Fleet) Run(ctx context.Context) (map[string]TuneResult, error) {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return nil, fmt.Errorf("core: fleet already run")
	}
	f.started = true
	f.mu.Unlock()

	// Each member is one scheduler.Shared source on its session's
	// dispatchSource — the loop and plumbing Session.Run and RunAsync
	// use with a single source (carry-over hand-out, propose-on-demand,
	// retrying evaluate, report); the fleet adds only the weights, the
	// per-member caps, slot accounting around Run and the drain
	// notification.
	dispatches := make([]*dispatchSource, len(f.members))
	sources := make([]scheduler.SharedSource[Trial, dispatchOutcome], len(f.members))
	for i := range f.members {
		i := i
		m := f.members[i]
		d := m.Session.newDispatch()
		dispatches[i] = d
		sources[i] = scheduler.SharedSource[Trial, dispatchOutcome]{
			Weight: m.Weight,
			Max:    m.MaxInFlight,
			Next:   d.nextOne,
			Run: func(ctx context.Context, tr Trial) dispatchOutcome {
				f.addInFlight(i, 1)
				defer f.addInFlight(i, -1)
				return d.run(ctx, tr)
			},
			Done: func(tr Trial, o dispatchOutcome) bool {
				ok := d.report(tr, o)
				if f.share {
					f.shareIncumbent(i)
				}
				return ok
			},
			Drained: func() { f.finishMember(i) },
		}
	}
	err := scheduler.Shared(ctx, f.slots, sources)
	if err == nil {
		for i, d := range dispatches {
			if ferr := d.firstErr(); ferr != nil {
				err = fmt.Errorf("fleet session %q: %w", f.members[i].Name, ferr)
				break
			}
		}
	}
	return f.Results(), err
}

// shareIncumbent runs after member i reported a trial: if the member's
// best improved, its incumbent configuration joins the fleet pool and
// every sibling's warm-start seeds are re-ranked (best contributor
// first, own incumbent excluded — the member's model already holds
// it). Runs only on the scheduler loop goroutine, after d.report
// released the session lock, so UpdateStrategy cannot deadlock.
func (f *Fleet) shareIncumbent(i int) {
	y, _, ok := f.members[i].Session.BestSoFar()
	if !ok || y <= f.shareBest[i] {
		return
	}
	var cfg storm.Config
	var have bool
	f.members[i].Session.UpdateStrategy(func(st Strategy) {
		if b, isBO := st.(*BOStrategy); isBO {
			cfg, have = b.BestConfig()
		}
	})
	if !have {
		return
	}
	f.shareBest[i] = y
	f.shareCfg[i] = cfg

	order := f.rankedContributors()
	for j := range f.members {
		pool := make([]storm.Config, 0, len(order))
		for _, k := range order {
			if k != j {
				pool = append(pool, f.shareCfg[k])
			}
		}
		if len(pool) == 0 {
			continue
		}
		f.members[j].Session.UpdateStrategy(func(st Strategy) {
			if b, isBO := st.(*BOStrategy); isBO {
				b.SetSharedSeeds(pool)
			}
		})
	}
}

// SharedPool returns the current ranked incumbent pool as seen by
// member name (best contributor first, the member's own incumbent
// excluded). Test/diagnostic helper; meaningful only between report
// boundaries.
func (f *Fleet) SharedPool(name string) []storm.Config {
	idx := -1
	for j, m := range f.members {
		if m.Name == name {
			idx = j
		}
	}
	if idx < 0 {
		return nil
	}
	var pool []storm.Config
	for _, k := range f.rankedContributors() {
		if k != idx {
			pool = append(pool, f.shareCfg[k].Clone())
		}
	}
	return pool
}

// rankedContributors returns the members that have shared an
// incumbent, best first (ties keep member order).
func (f *Fleet) rankedContributors() []int {
	order := make([]int, 0, len(f.members))
	for j := range f.members {
		if f.shareBest[j] > 0 {
			order = append(order, j)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return f.shareBest[order[a]] > f.shareBest[order[b]]
	})
	return order
}

// addInFlight adjusts a member's live slot count (Status reads it).
func (f *Fleet) addInFlight(i, delta int) {
	f.mu.Lock()
	f.inflight[i] += delta
	f.mu.Unlock()
}
