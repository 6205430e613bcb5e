package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// trackPeak records the global and per-source peak concurrency of a
// Shared run.
type trackPeak struct {
	inflight atomic.Int32
	peak     atomic.Int32
}

func (p *trackPeak) enter() {
	cur := p.inflight.Add(1)
	for {
		prev := p.peak.Load()
		if cur <= prev || p.peak.CompareAndSwap(prev, cur) {
			return
		}
	}
}

func (p *trackPeak) leave() { p.inflight.Add(-1) }

// counterSource builds a SharedSource that issues `jobs` integer jobs
// and counts completions.
func counterSource(jobs int, peak *trackPeak, grants *[]int, idx int,
	completed *atomic.Int32, weight float64, max int) SharedSource[int, int] {
	issued := 0
	return SharedSource[int, int]{
		Weight: weight,
		Max:    max,
		Next: func(context.Context) (int, bool) {
			if issued >= jobs {
				return 0, false
			}
			issued++
			if grants != nil {
				*grants = append(*grants, idx)
			}
			return issued, true
		},
		Run: func(_ context.Context, j int) int {
			peak.enter()
			time.Sleep(time.Duration(50+j%3*50) * time.Microsecond)
			peak.leave()
			return j
		},
		Done: func(_, _ int) bool { completed.Add(1); return true },
	}
}

// TestSharedNeverExceedsSlots is the fleet capacity invariant: however
// many sessions compete, the total number of in-flight jobs never
// exceeds the shared slot count, and every job completes exactly once.
// One slot runs each job inline on the loop goroutine.
func TestSharedNeverExceedsSlots(t *testing.T) {
	for _, slots := range []int{1, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			var peak trackPeak
			var completed atomic.Int32
			sources := make([]SharedSource[int, int], 5)
			seen := make([]map[int]int, len(sources))
			for i := range sources {
				sources[i] = counterSource(8, &peak, nil, i, &completed, 1, 0)
				seen[i] = map[int]int{}
				done := sources[i].Done
				i := i
				sources[i].Done = func(j, r int) bool {
					seen[i][j]++
					if r != j {
						t.Errorf("source %d job %d result %d", i, j, r)
					}
					return done(j, r)
				}
			}
			if err := Shared(context.Background(), slots, sources); err != nil {
				t.Fatal(err)
			}
			if got := completed.Load(); got != 40 {
				t.Fatalf("completed %d jobs, want 40", got)
			}
			for i := range seen {
				for j, n := range seen[i] {
					if n != 1 {
						t.Fatalf("source %d job %d completed %d times", i, j, n)
					}
				}
			}
			if p := peak.peak.Load(); p > int32(slots) {
				t.Fatalf("peak in-flight %d exceeds %d shared slots", p, slots)
			}
		})
	}
}

// TestSharedRefillsFreedSlot checks the free-slot-refill property on a
// single source: with one slow job and several fast ones, the fast
// slot turns over every other job while the slow one is still running.
func TestSharedRefillsFreedSlot(t *testing.T) {
	durations := []time.Duration{50 * time.Millisecond, 1, 1, 1, 1, 1}
	issued := 0
	var order []int
	src := SharedSource[int, struct{}]{
		Next: func(context.Context) (int, bool) {
			if issued >= len(durations) {
				return 0, false
			}
			issued++
			return issued - 1, true
		},
		Run: func(_ context.Context, j int) struct{} {
			time.Sleep(durations[j])
			return struct{}{}
		},
		Done: func(j int, _ struct{}) bool {
			order = append(order, j)
			return true
		},
	}
	start := time.Now()
	if err := Shared(context.Background(), 2, []SharedSource[int, struct{}]{src}); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(durations) {
		t.Fatalf("completed %d, want %d", len(order), len(durations))
	}
	// A barrier over batches of 2 would need 3 rounds each gated on the
	// 50 ms job's round; free-slot refill finishes all fast jobs during
	// the one slow job.
	if wall := time.Since(start); wall > 150*time.Millisecond {
		t.Fatalf("loop took %v, refill is not overlapping work", wall)
	}
	if order[len(order)-1] != 0 {
		t.Fatalf("slow job should complete last, order %v", order)
	}
}

// TestSharedPreCancelled: a context cancelled before the loop starts
// issues nothing — Next is never called — yet every source's Drained
// fires and the loop returns ctx.Err().
func TestSharedPreCancelled(t *testing.T) {
	for _, slots := range []int{1, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ran := false
			drained := make([]int, 3)
			sources := make([]SharedSource[int, int], len(drained))
			for i := range sources {
				i := i
				sources[i] = SharedSource[int, int]{
					Next:    func(context.Context) (int, bool) { ran = true; return 1, true },
					Run:     func(_ context.Context, j int) int { ran = true; return j },
					Done:    func(int, int) bool { ran = true; return true },
					Drained: func() { drained[i]++ },
				}
			}
			if err := Shared(ctx, slots, sources); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran {
				t.Fatal("pre-cancelled loop must not issue work")
			}
			for i, n := range drained {
				if n != 1 {
					t.Fatalf("source %d Drained fired %d times, want exactly 1", i, n)
				}
			}
		})
	}
}

// endlessSource is a single source that issues 1, 2, 3, … without end
// and counts what it issued; run and done are the caller's.
func endlessSource(issued *int, run func(context.Context, int) int,
	done func(int, int) bool) []SharedSource[int, int] {
	return []SharedSource[int, int]{{
		Next: func(context.Context) (int, bool) {
			*issued++
			return *issued, true
		},
		Run:  run,
		Done: done,
	}}
}

// TestLoopRunsEveryJobOnce feeds a fixed job list through the
// single-source loop and checks each job completes exactly once, with
// its own result, and with at most `slots` in flight.
func TestLoopRunsEveryJobOnce(t *testing.T) {
	const n, slots = 20, 3
	issued := 0
	var peak trackPeak
	done := map[int]int{}
	src := SharedSource[int, int]{
		Next: func(context.Context) (int, bool) {
			if issued >= n {
				return 0, false
			}
			issued++
			return issued, true
		},
		Run: func(_ context.Context, j int) int {
			peak.enter()
			time.Sleep(time.Millisecond)
			peak.leave()
			return j * 2
		},
		Done: func(j, r int) bool {
			done[j] = r
			return true
		},
	}
	if err := Shared(context.Background(), slots, []SharedSource[int, int]{src}); err != nil {
		t.Fatal(err)
	}
	if len(done) != n {
		t.Fatalf("completed %d jobs, want %d", len(done), n)
	}
	for j, r := range done {
		if r != j*2 {
			t.Fatalf("job %d result %d", j, r)
		}
	}
	if p := peak.peak.Load(); p > slots {
		t.Fatalf("peak in-flight %d exceeds %d slots", p, slots)
	}
}

// TestLoopStopsWhenDoneSaysSo checks that on a single source Done=false
// stops issuing but still drains the jobs already in flight.
func TestLoopStopsWhenDoneSaysSo(t *testing.T) {
	issued, completions := 0, 0
	err := Shared(context.Background(), 4, endlessSource(&issued,
		func(_ context.Context, j int) int { return j },
		func(int, int) bool {
			completions++
			return false
		}))
	if err != nil {
		t.Fatal(err)
	}
	if completions != 4 {
		t.Fatalf("expected the initial 4 in-flight jobs to drain, got %d completions", completions)
	}
	if issued != 4 {
		t.Fatalf("no refill should happen after stop, issued %d", issued)
	}
}

// TestLoopHonorsCancellation checks that cancelling the context stops
// refills of a single source, drains in-flight work, and surfaces
// ctx.Err().
func TestLoopHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	issued, completions := 0, 0
	err := Shared(ctx, 2, endlessSource(&issued,
		func(_ context.Context, j int) int {
			time.Sleep(2 * time.Millisecond)
			return j
		},
		func(int, int) bool {
			completions++
			if completions == 3 {
				cancel()
			}
			return true
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// After cancel at the 3rd completion, only already-launched jobs may
	// complete: at most 3 + 2 slots.
	if completions > 5 {
		t.Fatalf("%d completions after cancellation", completions)
	}
	if issued > completions+2 {
		t.Fatalf("issued %d, completed %d: loop kept refilling after cancel", issued, completions)
	}
}

// TestSharedHonorsPerSourceMax pins the per-session cap: a source with
// Max=1 never has two jobs in flight even when the fleet has idle
// slots.
func TestSharedHonorsPerSourceMax(t *testing.T) {
	var peaks [2]trackPeak
	var completed atomic.Int32
	mk := func(i, max int) SharedSource[int, int] {
		issued := 0
		return SharedSource[int, int]{
			Max: max,
			Next: func(context.Context) (int, bool) {
				if issued >= 10 {
					return 0, false
				}
				issued++
				return issued, true
			},
			Run: func(_ context.Context, j int) int {
				peaks[i].enter()
				time.Sleep(100 * time.Microsecond)
				peaks[i].leave()
				return j
			},
			Done: func(_, _ int) bool { completed.Add(1); return true },
		}
	}
	sources := []SharedSource[int, int]{mk(0, 1), mk(1, 0)}
	if err := Shared(context.Background(), 4, sources); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != 20 {
		t.Fatalf("completed %d jobs, want 20", got)
	}
	if p := peaks[0].peak.Load(); p > 1 {
		t.Fatalf("capped source peaked at %d in-flight, want ≤ 1", p)
	}
}

// TestSharedReleasesSlotsAcrossSources checks that sessions finishing
// at different times release their slots to the survivors: once the
// short source drains, the long one gets the whole pool.
func TestSharedReleasesSlotsAcrossSources(t *testing.T) {
	const slots = 4
	var longPeakAfter atomic.Int32 // peak in-flight of the long source after the short one drained
	var shortDone atomic.Bool
	var longInflight atomic.Int32
	var completed atomic.Int32

	shortIssued, longIssued := 0, 0
	short := SharedSource[int, int]{
		Next: func(context.Context) (int, bool) {
			if shortIssued >= 2 {
				return 0, false
			}
			shortIssued++
			return shortIssued, true
		},
		Run: func(_ context.Context, j int) int {
			time.Sleep(200 * time.Microsecond)
			return j
		},
		Done:    func(_, _ int) bool { completed.Add(1); return true },
		Drained: func() { shortDone.Store(true) },
	}
	long := SharedSource[int, int]{
		Next: func(context.Context) (int, bool) {
			if longIssued >= 60 {
				return 0, false
			}
			longIssued++
			return longIssued, true
		},
		Run: func(_ context.Context, j int) int {
			cur := longInflight.Add(1)
			if shortDone.Load() {
				for {
					prev := longPeakAfter.Load()
					if cur <= prev || longPeakAfter.CompareAndSwap(prev, cur) {
						break
					}
				}
			}
			time.Sleep(300 * time.Microsecond)
			longInflight.Add(-1)
			return j
		},
		Done: func(_, _ int) bool { completed.Add(1); return true },
	}
	if err := Shared(context.Background(), slots, []SharedSource[int, int]{short, long}); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != 62 {
		t.Fatalf("completed %d jobs, want 62", got)
	}
	if !shortDone.Load() {
		t.Fatal("short source never reported drained")
	}
	if p := longPeakAfter.Load(); p < slots {
		t.Fatalf("after the short source drained, the long source peaked at %d in-flight, want the full %d slots", p, slots)
	}
}

// TestSharedWeightedShareAndNoStarvation drives two sources with a 1:9
// weight ratio through a slot-at-a-time loop and checks both
// properties of stride scheduling at once: grants split roughly by
// weight, and the light source is never starved — its grants are
// spread through the sequence, not bunched at the end.
func TestSharedWeightedShareAndNoStarvation(t *testing.T) {
	var grants []int
	var peak trackPeak
	var completed atomic.Int32
	sources := []SharedSource[int, int]{
		counterSource(200, &peak, &grants, 0, &completed, 1, 0),
		counterSource(200, &peak, &grants, 1, &completed, 9, 0),
	}
	// One slot makes the grant sequence exactly the scheduler's choice
	// order (completions can't reorder it).
	if err := Shared(context.Background(), 1, sources); err != nil {
		t.Fatal(err)
	}
	// While both sources still have jobs (first 220 grants: neither can
	// be exhausted yet at a 1:9 split), the split should be ~1:9.
	window := grants[:220]
	count := [2]int{}
	firstLight := -1
	lastGapStart := 0
	maxGap := 0
	for i, s := range window {
		count[s]++
		if s == 0 {
			if firstLight < 0 {
				firstLight = i
			}
			if gap := i - lastGapStart; gap > maxGap {
				maxGap = gap
			}
			lastGapStart = i
		}
	}
	if count[0] == 0 {
		t.Fatal("light source starved: no grants in the first 220")
	}
	ratio := float64(count[1]) / float64(count[0])
	if ratio < 6 || ratio > 12 {
		t.Fatalf("grant split %d:%d (ratio %.1f), want roughly 1:9", count[0], count[1], ratio)
	}
	// No starvation: the light source appears at least every ~2×(9+1)
	// grants, never pushed arbitrarily far out.
	if maxGap > 25 {
		t.Fatalf("light source went %d grants without a slot; stride scheduling should bound the gap near 10", maxGap)
	}
}

// TestSharedEqualWeightsAlternate pins plain fair share: with equal
// weights and one slot, grants alternate between the sources.
func TestSharedEqualWeightsAlternate(t *testing.T) {
	var grants []int
	var peak trackPeak
	var completed atomic.Int32
	sources := []SharedSource[int, int]{
		counterSource(10, &peak, &grants, 0, &completed, 0, 0), // weight ≤0 means 1
		counterSource(10, &peak, &grants, 1, &completed, 1, 0),
	}
	if err := Shared(context.Background(), 1, sources); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < 20; i += 2 {
		if grants[i] == grants[i+1] {
			t.Fatalf("grants %v: equal-weight sources should alternate", grants)
		}
	}
}

// TestSharedCancellationCollectsInFlight: on cancellation the loop
// stops issuing but reports every in-flight result, and every source's
// Drained still fires exactly once. At one slot the cancellation lands
// while the job runs inline on the loop goroutine.
func TestSharedCancellationCollectsInFlight(t *testing.T) {
	for _, slots := range []int{1, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var reported atomic.Int32
			var drained [3]atomic.Int32
			started := make(chan struct{}, 16)
			sources := make([]SharedSource[int, int], 3)
			for i := range sources {
				i := i
				issued := 0
				sources[i] = SharedSource[int, int]{
					Next: func(context.Context) (int, bool) {
						if issued >= 100 {
							return 0, false
						}
						issued++
						return issued, true
					},
					Run: func(ctx context.Context, j int) int {
						started <- struct{}{}
						<-ctx.Done()
						return j
					},
					Done:    func(_, _ int) bool { reported.Add(1); return true },
					Drained: func() { drained[i].Add(1) },
				}
			}
			errc := make(chan error, 1)
			go func() { errc <- Shared(ctx, slots, sources) }()
			for i := 0; i < slots; i++ {
				<-started
			}
			cancel()
			if err := <-errc; err != context.Canceled {
				t.Fatalf("Shared returned %v, want context.Canceled", err)
			}
			if got := reported.Load(); got != int32(slots) {
				t.Fatalf("reported %d in-flight results after cancel, want %d", got, slots)
			}
			for i := range drained {
				if got := drained[i].Load(); got != 1 {
					t.Fatalf("source %d Drained fired %d times, want exactly 1", i, got)
				}
			}
		})
	}
}

// TestSharedDoneFalseStopsOneSource checks that Done returning false
// stops only that source; the others run to completion.
func TestSharedDoneFalseStopsOneSource(t *testing.T) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			var aCompleted, bCompleted atomic.Int32
			var aDrained atomic.Bool
			aIssued, bIssued := 0, 0
			a := SharedSource[int, int]{
				Next: func(context.Context) (int, bool) {
					if aIssued >= 50 {
						return 0, false
					}
					aIssued++
					return aIssued, true
				},
				Run:  func(_ context.Context, j int) int { return j },
				Done: func(j, _ int) bool { aCompleted.Add(1); return j < 3 }, // stop after the 3rd completion
				Drained: func() {
					aDrained.Store(true)
				},
			}
			b := SharedSource[int, int]{
				Next: func(context.Context) (int, bool) {
					if bIssued >= 20 {
						return 0, false
					}
					bIssued++
					return bIssued, true
				},
				Run:  func(_ context.Context, j int) int { return j },
				Done: func(_, _ int) bool { bCompleted.Add(1); return true },
			}
			if err := Shared(context.Background(), slots, []SharedSource[int, int]{a, b}); err != nil {
				t.Fatal(err)
			}
			if got := bCompleted.Load(); got != 20 {
				t.Fatalf("surviving source completed %d jobs, want all 20", got)
			}
			if !aDrained.Load() {
				t.Fatal("stopped source never drained")
			}
			// The stopped source completed its third job and whatever of
			// its jobs were already in flight — at most slots-1 more — and
			// was issued nothing after that.
			if got := aCompleted.Load(); got < 3 || got > int32(2+slots) {
				t.Fatalf("stopped source completed %d jobs, want 3..%d", got, 2+slots)
			}
			if int32(aIssued) != aCompleted.Load() {
				t.Fatalf("stopped source issued %d jobs but completed %d", aIssued, aCompleted.Load())
			}
		})
	}
}

// TestSharedRaceHammer drives many weighted sources with jittered job
// durations under -race: the invariants are total completions, the
// shared-slot cap, per-source caps, and exactly-once Drained.
func TestSharedRaceHammer(t *testing.T) {
	const nSources, jobs, slots = 8, 30, 5
	rng := rand.New(rand.NewSource(7))
	durations := make([][]time.Duration, nSources)
	for i := range durations {
		durations[i] = make([]time.Duration, jobs)
		for j := range durations[i] {
			durations[i][j] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
	}
	var peak trackPeak
	perPeak := make([]trackPeak, nSources)
	var completed atomic.Int32
	var drainMu sync.Mutex
	drains := make(map[int]int)
	sources := make([]SharedSource[int, int], nSources)
	for i := range sources {
		i := i
		issued := 0
		max := 0
		if i%2 == 0 {
			max = 2
		}
		sources[i] = SharedSource[int, int]{
			Weight: float64(1 + i%3),
			Max:    max,
			Next: func(context.Context) (int, bool) {
				if issued >= jobs {
					return 0, false
				}
				issued++
				return issued, true
			},
			Run: func(_ context.Context, j int) int {
				peak.enter()
				perPeak[i].enter()
				time.Sleep(durations[i][j-1])
				perPeak[i].leave()
				peak.leave()
				return j
			},
			Done: func(_, _ int) bool { completed.Add(1); return true },
			Drained: func() {
				drainMu.Lock()
				drains[i]++
				drainMu.Unlock()
			},
		}
	}
	if err := Shared(context.Background(), slots, sources); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != nSources*jobs {
		t.Fatalf("completed %d jobs, want %d", got, nSources*jobs)
	}
	if p := peak.peak.Load(); p > slots {
		t.Fatalf("peak in-flight %d exceeds %d shared slots", p, slots)
	}
	for i := range perPeak {
		if i%2 == 0 {
			if p := perPeak[i].peak.Load(); p > 2 {
				t.Fatalf("source %d peaked at %d in-flight, capped at 2", i, p)
			}
		}
	}
	for i := 0; i < nSources; i++ {
		if drains[i] != 1 {
			t.Fatalf("source %d Drained fired %d times, want exactly 1", i, drains[i])
		}
	}
}

// TestFairSharePickDeterministic pins the allocator itself: picks are
// deterministic, proportional to weight, and skip ineligible sources
// without advancing their pass.
func TestFairSharePickDeterministic(t *testing.T) {
	f := NewFairShare([]float64{1, 3})
	eligible := []bool{true, true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, f.Pick(eligible))
	}
	count := [2]int{}
	for _, g := range got {
		count[g]++
	}
	if count[0] != 2 || count[1] != 6 {
		t.Fatalf("grants %v: want a 2:6 split for weights 1:3", got)
	}
	// Same weights, same sequence.
	f2 := NewFairShare([]float64{1, 3})
	for i, want := range got {
		if g := f2.Pick(eligible); g != want {
			t.Fatalf("pick %d: %d, want %d (allocator must be deterministic)", i, g, want)
		}
	}
	// An ineligible source is skipped and not penalized: once eligible
	// again it picks up where its pass left off.
	f3 := NewFairShare([]float64{1, 1})
	first := f3.Pick([]bool{true, true})
	other := 1 - first
	for i := 0; i < 5; i++ {
		if g := f3.Pick([]bool{first == 0, first == 1}); g != first {
			t.Fatalf("only eligible source is %d, picked %d", first, g)
		}
	}
	if g := f3.Pick([]bool{true, true}); g != other {
		t.Fatalf("re-eligible source should win immediately, picked %d", g)
	}
	if g := f3.Pick([]bool{false, false}); g != -1 {
		t.Fatalf("no eligible source: want -1, got %d", g)
	}
}
