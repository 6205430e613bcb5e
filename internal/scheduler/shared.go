// Package scheduler implements the free-slot-refill dispatch loop every
// session driver runs on: up to a fixed number of jobs, drawn from one
// or more weighted sources, run concurrently, and the moment any job
// completes a replacement is requested — no barrier between rounds, so
// slow jobs never hold idle slots hostage the way batch dispatch does
// when durations vary. A single session is one source; a fleet is one
// source per member, sharing the slots by weighted fair share.
//
// Completions are processed strictly one at a time on the caller's
// goroutine, so given the same completion order the sequence of
// Next/Done calls — and therefore everything the caller derives from
// it — is deterministic. At one slot the job itself runs on that
// goroutine too: nothing else can be in flight, so the order is the
// same and each job saves a goroutine hand-off.
package scheduler

import "context"

// FairShare allocates slot grants across weighted sources by stride
// scheduling: each source carries a pass value advanced by 1/weight on
// every grant, and the next grant goes to the eligible source with the
// lowest pass (ties to the lowest index). Over time each source
// receives grants in proportion to its weight, and — unlike picking by
// current occupancy alone — no eligible source is ever starved: a
// source skipped now keeps its pass while the others' grow, so it
// becomes the minimum after at most ~maxWeight/itsWeight grants.
//
// FairShare is not safe for concurrent use; the dispatch loop that owns
// one calls it from a single goroutine.
type FairShare struct {
	pass   []float64
	stride []float64
}

// NewFairShare builds an allocator for len(weights) sources. Weights at
// or below zero count as 1 (plain fair share); larger weights receive
// proportionally more grants.
func NewFairShare(weights []float64) *FairShare {
	f := &FairShare{
		pass:   make([]float64, len(weights)),
		stride: make([]float64, len(weights)),
	}
	for i, w := range weights {
		if w <= 0 {
			w = 1
		}
		f.stride[i] = 1 / w
		// Start each source one stride in, the standard stride-scheduling
		// initialization: the very first grants already follow the weights
		// instead of handing every source one grant in index order.
		f.pass[i] = f.stride[i]
	}
	return f
}

// Len returns the number of sources.
func (f *FairShare) Len() int { return len(f.pass) }

// Pick returns the eligible source the next slot should go to and
// advances its pass, or -1 when no source is eligible. eligible must
// have Len() entries; an ineligible source (dead, or at its in-flight
// cap) keeps its pass, so it is not penalized for the time it could not
// compete.
func (f *FairShare) Pick(eligible []bool) int {
	best := -1
	for i, p := range f.pass {
		if !eligible[i] {
			continue
		}
		if best < 0 || p < f.pass[best] {
			best = i
		}
	}
	if best >= 0 {
		f.pass[best] += f.stride[best]
	}
	return best
}

// SharedSource is one job source competing for the slots of a Shared
// dispatch loop. The loop calls Next and Done from a single goroutine;
// only Run executes concurrently.
type SharedSource[J, R any] struct {
	// Weight scales the source's share of slot grants (≤ 0 means 1).
	Weight float64
	// Max caps the source's own in-flight jobs; 0 means no cap beyond
	// the shared slot count. A session whose cluster can only host k
	// concurrent trials sets Max=k so the fleet never oversubscribes it.
	Max int
	// Next returns the source's next job; ok=false means the source is
	// exhausted and will not be asked again. The loop forwards its own
	// ctx so proposal work observes cancellation without the source
	// having to capture a context.
	Next func(ctx context.Context) (job J, ok bool)
	// Run evaluates one job; one goroutine per in-flight job, except
	// at one slot, where it runs on the loop goroutine.
	Run func(context.Context, J) R
	// Done is called serially, in completion order across all sources;
	// returning false stops the loop from issuing further jobs to this
	// source (in-flight ones still complete and are reported).
	Done func(J, R) bool
	// Drained, when non-nil, is called exactly once — serially, from the
	// loop goroutine — when the source will produce no further
	// completions: it stopped issuing (exhausted, Done returned false,
	// or the context was cancelled) and its last in-flight job has been
	// reported. Every source's Drained has fired by the time Shared
	// returns.
	Drained func()
}

// Shared runs one or more job sources over one shared pool of slots:
// at most `slots` jobs are in flight across all sources at any
// instant, and each freed slot is granted to the eligible source
// chosen by a weighted-fair-share FairShare allocator. Completions are
// processed strictly one at a time on the caller's goroutine, so given
// the same completion order the sequence of Next/Done/Drained calls is
// deterministic. With slots == 1 each job runs inline on the caller's
// goroutine.
//
// The loop returns when every source has drained — all are exhausted
// (or stopped) and nothing is in flight. On cancellation it stops
// issuing but keeps collecting (and reporting via Done) every in-flight
// result already paid for, then returns ctx.Err().
func Shared[J, R any](ctx context.Context, slots int, sources []SharedSource[J, R]) error {
	if slots < 1 {
		slots = 1
	}
	n := len(sources)
	weights := make([]float64, n)
	for i := range sources {
		weights[i] = sources[i].Weight
	}
	share := NewFairShare(weights)
	type completion struct {
		src int
		job J
		res R
	}
	// Buffered to the slot count, so a finished job never waits for the
	// loop and an inline job can hand in its own completion.
	ch := make(chan completion, slots)
	inflight := make([]int, n)
	total := 0
	alive := make([]bool, n)
	drained := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// drain marks a source as producing no further completions and fires
	// its hook; safe to call repeatedly.
	drain := func(i int) {
		if drained[i] {
			return
		}
		drained[i] = true
		if sources[i].Drained != nil {
			sources[i].Drained()
		}
	}
	stop := func() {
		for i := range alive {
			alive[i] = false
			if inflight[i] == 0 {
				drain(i)
			}
		}
	}
	eligible := make([]bool, n)
	// fill grants free slots until none are left or no source is
	// eligible. Next and the grant bookkeeping run on this goroutine.
	fill := func() {
		for total < slots {
			for i := range eligible {
				eligible[i] = alive[i] && (sources[i].Max <= 0 || inflight[i] < sources[i].Max)
			}
			i := share.Pick(eligible)
			if i < 0 {
				return
			}
			job, ok := sources[i].Next(ctx)
			if !ok {
				alive[i] = false
				if inflight[i] == 0 {
					drain(i)
				}
				continue
			}
			inflight[i]++
			total++
			if slots == 1 {
				ch <- completion{src: i, job: job, res: sources[i].Run(ctx, job)}
				continue
			}
			go func(i int, job J) {
				ch <- completion{src: i, job: job, res: sources[i].Run(ctx, job)}
			}(i, job)
		}
	}
	if ctx.Err() != nil {
		stop()
		return ctx.Err()
	}
	fill()
	for total > 0 {
		c := <-ch
		inflight[c.src]--
		total--
		if !sources[c.src].Done(c.job, c.res) {
			alive[c.src] = false
		}
		if ctx.Err() != nil {
			stop()
		}
		if !alive[c.src] && inflight[c.src] == 0 {
			drain(c.src)
		}
		fill()
	}
	stop() // sources never granted a slot still owe their Drained
	return ctx.Err()
}
