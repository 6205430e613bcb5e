package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinySizes run every workload's code paths, injected failures and
// checks included, in well under a second each.
var tinySizes = sizes{
	setupReps:   2,
	warmupSteps: 4,

	paperSteps: 12,
	paperMin:   2,

	longSteps: 14,
	longMin:   1,

	poolSessions: 4,
	poolSteps:    8,
	poolMedium:   4,
	poolMin:      1,
	poolFail:     5,

	durSessions: 2,
	durSteps:    12,
	durMin:      1,
	donors:      1,
	donorSteps:  6,
}

// TestWorkloadsTiny runs all four workloads untraced and traced at tiny
// scale: every check must pass and every declared metric must be a
// finite measurement.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			p := params{workload: w.name, seed: 7, trace: trace, workdir: t.TempDir(), sz: tinySizes}
			rep, err := execute(context.Background(), p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s trace=%v: checks %v, %d failed trials", w.name, trace, rep.Checks, rep.Failed)
			}
			if rep.Attempted == 0 || rep.Units < 1 {
				t.Fatalf("%s trace=%v: %d trials over %d units", w.name, trace, rep.Attempted, rep.Units)
			}
			decls := append([]metricDecl(nil), endToEndMetrics...)
			if trace {
				decls = append(decls, perLayerMetrics...)
			}
			for _, d := range decls {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %+v", w.name, trace, d.Name, m)
				}
			}
			if !trace {
				for _, name := range []string{"trials_per_s", "quality_pct", "setup_s", "cpu_ms_per_trial", "unit_heap_mb"} {
					if rep.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, rep.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestTracedLayers checks that a traced run attributes time to the
// layers each workload exercises.
func TestTracedLayers(t *testing.T) {
	want := map[string][]string{
		"paper-seq":     {"bo.ask_ms.p50", "storm.evals"},
		"fleet-pool":    {"remote.requests", "remote.lost", "remote.rtt_ms.p50", "remote.transport_ms.p50", "pool.wait_ms.p50", "storm.delay_ms.mean"},
		"fleet-durable": {"archive.appends", "archive.query_calls", "archive.append_ms.p50", "fleetlog.records", "fleetlog.bytes_per_trial", "fleetlog.recover_ms", "recorder.events"},
	}
	for name, metrics := range want {
		rep, err := execute(context.Background(), params{workload: name, seed: 3, trace: true, workdir: t.TempDir(), sz: tinySizes})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			if rep.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %+v, want > 0", name, m, rep.Metrics[m])
			}
		}
	}
}

// TestSequentialIsDeterministic: the same seed gives the same sessions,
// so quality metrics repeat exactly.
func TestSequentialIsDeterministic(t *testing.T) {
	var got [2]report
	for i := range got {
		rep, err := execute(context.Background(), params{workload: "paper-seq", seed: 11, workdir: t.TempDir(), sz: tinySizes})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = rep
	}
	for _, m := range []string{"quality_pct", "trials_to_quality"} {
		if a, b := got[0].Metrics[m].Value, got[1].Metrics[m].Value; a != b {
			t.Errorf("%s: %v then %v", m, a, b)
		}
	}
}

func TestQuantileReportsSampleCount(t *testing.T) {
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Fatalf("empty sample: %v, %d", v, n)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.95, 95.05}, {1, 100}} {
		v, n := quantile(xs, c.q)
		if n != 100 || math.Abs(v-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v (n=%d), want %v (n=100)", c.q, v, n, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("quantile sorted its input in place")
	}
}

// TestQuartilesMatchPython pins the spread definition to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 8}, 3, 6, 9},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name          string
		lowerIsBetter bool
		b             []float64
		want          string
	}{
		{"same", true, []float64{100, 100, 101, 99, 100}, verdictWithin},
		{"slower within bound", true, []float64{105, 106, 104, 105, 105}, verdictWithin},
		{"slower beyond bound", true, []float64{115, 116, 114, 115, 115}, verdictWorse},
		{"faster beyond bound", true, []float64{85, 86, 84, 85, 85}, verdictBetter},
		{"throughput drop", false, []float64{85, 86, 84, 85, 85}, verdictWorse},
		{"noisy", true, []float64{80, 120, 100, 60, 140}, verdictUnresolved},
		{"noisy but separated", true, []float64{150, 200, 300, 160, 170}, verdictWorse},
		{"empty", true, nil, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.lowerIsBetter, 0.10, base, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program emits in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, bench %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the bench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, bench %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndMetrics)
	same("per_layer", bf.PerLayer, perLayerMetrics)
}

// TestHostScale pins the conversion to reference speed: busy time
// shrinks by the CPU slowdown, the rest by the disk slowdown.
func TestHostScale(t *testing.T) {
	cases := []struct {
		slow, disk float64
		cpu, wall  int64
		want       float64 // ms for a 100 ms duration
	}{
		{2, 1, 10, 10, 50},    // fully busy: divided by the slowdown
		{2, 1, 0, 10, 100},    // idle without disk probes: unchanged
		{2, 1, 5, 10, 75},     // half busy
		{2, 4, 5, 10, 37.5},   // half busy, half waiting on a disk 4 times slow
		{2, 1, 30, 10, 50},    // CPU above wall (other threads) counts as fully busy
		{0.5, 1, 10, 10, 200}, // a host faster than the reference
	}
	for _, c := range cases {
		if got := newHostScale(c.slow, c.disk, c.cpu, c.wall).ms(100e6); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("slow %v disk %v busy %d/%d: %v ms, want %v", c.slow, c.disk, c.cpu, c.wall, got, c.want)
		}
	}
	// Block medians ignore one stall per block; blocks are averaged.
	ref := float64(probeRef)
	durs := []float64{ref, ref, ref, 50 * ref, ref, ref, ref, ref, 3 * ref}
	if got := slowdown(durs); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown without probes = %v, want 1", got)
	}
}

// TestProbeStopsTheClock: time spent probing is invisible to the run's
// clock, so no measured interval contains a probe.
func TestProbeStopsTheClock(t *testing.T) {
	clk := newClock()
	h := &hostProbe{clk: clk}
	if err := h.startDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t0, real0 := clk.now(), time.Now()
	h.probe(20)
	seen, spent := clk.now()-t0, time.Since(real0)
	for _, s := range []*series{&h.cpu, &h.disk} {
		if durs, total := s.between(t0, clk.now()); len(durs) != 20 || total <= 0 {
			t.Fatalf("%d probes totalling %v", len(durs), time.Duration(total))
		}
	}
	if seen > int64(spent)/4 {
		t.Fatalf("the clock advanced %v during %v of probing", time.Duration(seen), spent)
	}
	h.maybeProbe()
	if durs, _ := h.cpu.between(0, clk.now()); len(durs) != 20 {
		t.Fatalf("a probe ran %v after the last, before probeEvery", time.Duration(clk.now()-t0))
	}
	if err := h.stopDisk(); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedSeedsAvoidReferenceSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for i := 0; i < 50; i++ {
			s := derive(seed, "paper", i)
			if s < 1 || s >= refSeedBase {
				t.Fatalf("derive(%d, paper, %d) = %d", seed, i, s)
			}
			seen[s] = true
		}
	}
	if len(seen) < 2490 {
		t.Fatalf("only %d distinct seeds out of 2500", len(seen))
	}
}

func TestTrialDelayIsBoundedParetoTail(t *testing.T) {
	var sum time.Duration
	capped := 0
	const n = 20000
	for i := 0; i < n; i++ {
		d := trialDelay(1, uint64(i)*7919, i)
		if d < delayBase || d > delayCap {
			t.Fatalf("delay %v outside [%v, %v]", d, delayBase, delayCap)
		}
		if d == delayCap {
			capped++
		}
		sum += d
	}
	// Capped Pareto(2ms, 1.3) at 50ms: mean ≈ 6.1ms, P(cap) ≈ 1.5%.
	if m := sum / n; m < 5500*time.Microsecond || m > 6800*time.Microsecond {
		t.Errorf("mean delay %v, want about 6.1ms", m)
	}
	if share := float64(capped) / n; share < 0.01 || share > 0.02 {
		t.Errorf("capped share %v, want about 0.015", share)
	}
	if trialDelay(3, 42, 9) != trialDelay(3, 42, 9) {
		t.Fatal("delay is not a function of its key")
	}
}
