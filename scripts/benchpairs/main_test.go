package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		ns   float64
		ok   bool
	}{
		{"BenchmarkFleetSchedule-2               \t       3\t    781997 ns/op", "BenchmarkFleetSchedule", 781997, true},
		{"BenchmarkBOSuggestLargeHistory/n1000-2 \t       3\t   4027626 ns/op", "BenchmarkBOSuggestLargeHistory/n1000", 4027626, true},
		{"BenchmarkBOSuggestParallelScorer-8   1   12345678 ns/op   456 B/op   7 allocs/op", "BenchmarkBOSuggestParallelScorer", 12345678, true},
		{"BenchmarkMaternRow/vector-2  1000  812.5 ns/op  1.23 rows/us", "BenchmarkMaternRow/vector", 812.5, true},
		{"BenchmarkWarmStartSeed   3   189733 ns/op", "BenchmarkWarmStartSeed", 189733, true},
		{"BenchmarkX-2  3  12.5 MB/s  1 allocs/op", "", 0, false},
		{"BenchmarkX-2  three  12 ns/op", "", 0, false},
		{"BenchmarkX-2  3  twelve ns/op", "", 0, false},
		{"BenchmarkBOSuggestLargeHistory", "", 0, false},
		{"--- FAIL: BenchmarkArchiveQuery-2", "", 0, false},
		{"pkg: stormtune", "", 0, false},
		{"PASS", "", 0, false},
	} {
		name, ns, ok := parseBenchLine(tc.line)
		if name != tc.name || ns != tc.ns || ok != tc.ok {
			t.Errorf("parseBenchLine(%q) = %q, %v, %v; want %q, %v, %v", tc.line, name, ns, ok, tc.name, tc.ns, tc.ok)
		}
	}
}

// microPasses renders passes of `go test -bench` output: passes[k] maps
// a benchmark name to its ns/op in pass k.
func microPasses(names []string, passes ...map[string]float64) string {
	var b strings.Builder
	for _, p := range passes {
		b.WriteString("goos: linux\ngoarch: amd64\npkg: stormtune\n")
		for _, n := range names {
			if v, ok := p[n]; ok {
				fmt.Fprintf(&b, "%s-2  \t       3\t  %g ns/op\n", n, v)
			}
		}
		b.WriteString("PASS\n")
	}
	return b.String()
}

func mustLoadMicro(t *testing.T, log string) microLog {
	t.Helper()
	l, err := loadMicro(writeFile(t, t.TempDir(), "micro.log", log))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPairMicroByPassIndex(t *testing.T) {
	names := []string{"BenchmarkA", "BenchmarkB/n100"}
	base := mustLoadMicro(t, microPasses(names,
		map[string]float64{"BenchmarkA": 10, "BenchmarkB/n100": 100},
		map[string]float64{"BenchmarkA": 11, "BenchmarkB/n100": 110},
		map[string]float64{"BenchmarkA": 12, "BenchmarkB/n100": 120}))
	change := mustLoadMicro(t, microPasses(names,
		map[string]float64{"BenchmarkA": 20, "BenchmarkB/n100": 200},
		map[string]float64{"BenchmarkA": 21, "BenchmarkB/n100": 210},
		map[string]float64{"BenchmarkA": 22, "BenchmarkB/n100": 220}))
	all, missing, added, bad := pairMicro(base, change)
	if len(missing)+len(added)+len(bad) != 0 {
		t.Fatalf("missing %v, added %v, bad %v; want none", missing, added, bad)
	}
	want := []series{
		{workload: "micro", metric: "BenchmarkA", unit: "ns/op", lowerIsBetter: true, bound: microBound,
			labels: []string{"pair 1", "pair 2", "pair 3"}, base: []float64{10, 11, 12}, change: []float64{20, 21, 22}},
		{workload: "micro", metric: "BenchmarkB/n100", unit: "ns/op", lowerIsBetter: true, bound: microBound,
			labels: []string{"pair 1", "pair 2", "pair 3"}, base: []float64{100, 110, 120}, change: []float64{200, 210, 220}},
	}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("pairMicro series\n got %+v\nwant %+v", all, want)
	}
}

// TestLoadMicroTakesPassMedians: a pass run with -test.count prints
// each benchmark several times, and the pass contributes their median.
func TestLoadMicroTakesPassMedians(t *testing.T) {
	log := "goos: linux\ngoarch: amd64\npkg: stormtune\n" +
		"BenchmarkA-2  3  100 ns/op\nBenchmarkA-2  3  400 ns/op\nBenchmarkA-2  3  120 ns/op\n" +
		"BenchmarkB-2  3  7 ns/op\nBenchmarkB-2  3  9 ns/op\nPASS\n" +
		"goos: linux\ngoarch: amd64\npkg: stormtune\n" +
		"BenchmarkA-2  3  90 ns/op\nBenchmarkA-2  3  95 ns/op\nBenchmarkA-2  3  1000 ns/op\n" +
		"BenchmarkB-2  3  5 ns/op\nPASS\n"
	l := mustLoadMicro(t, log)
	want := microLog{names: []string{"BenchmarkA", "BenchmarkB"},
		ns: map[string][]float64{"BenchmarkA": {120, 95}, "BenchmarkB": {8, 5}}}
	if !reflect.DeepEqual(l, want) {
		t.Errorf("loadMicro = %+v, want %+v", l, want)
	}
}

func TestPairMicroUnevenPassesAreBad(t *testing.T) {
	names := []string{"BenchmarkA"}
	base := mustLoadMicro(t, microPasses(names, map[string]float64{"BenchmarkA": 1}, map[string]float64{"BenchmarkA": 2}))
	change := mustLoadMicro(t, microPasses(names, map[string]float64{"BenchmarkA": 1}))
	all, _, _, bad := pairMicro(base, change)
	if len(all) != 0 || len(bad) != 1 {
		t.Errorf("got %d series and bad %v; want none and one bad benchmark", len(all), bad)
	}
}

func TestPairUpBySeed(t *testing.T) {
	r := func(w string, seed int64, trace bool) run {
		return run{Workload: w, Seed: seed, Trace: trace, Correct: true}
	}
	base := []run{r("paper-seq", 3, false), r("paper-seq", 1, false), r("fleet-pool", 2, false), r("paper-seq", 2, true)}
	change := []run{r("paper-seq", 1, false), r("fleet-pool", 2, false), r("paper-seq", 4, false), r("paper-seq", 3, true)}
	pairs, unpaired := pairUp(base, change)
	var got []string
	for _, p := range pairs {
		got = append(got, fmt.Sprintf("%s/%d", p.workload, p.seed))
	}
	if want := []string{"fleet-pool/2", "paper-seq/1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pairs %v, want %v", got, want)
	}
	if want := []string{"paper-seq seed 3: no change run", "paper-seq seed 4: no base run"}; !reflect.DeepEqual(unpaired, want) {
		t.Errorf("unpaired %v, want %v", unpaired, want)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestDecide(t *testing.T) {
	base := []float64{100, 104, 97, 101, 99, 103}
	for _, tc := range []struct {
		name   string
		lower  bool
		base   []float64
		change []float64
		fail   bool
	}{
		{"noise", true, base, []float64{101, 99, 100, 106, 98, 102}, false},
		{"uniform 2x slowdown", true, base, scaled(base, 2), true},
		{"throughput halved", false, base, scaled(base, 0.5), true},
		{"median beyond bound, too few worse pairs", true, base, []float64{200, 208, 194, 202, 198, 90}, false},
		{"unanimous, median within bound", true, base, scaled(base, 1.1), false},
		{"all tied", true, base, base, false},
		{"uniform 2x speedup", true, base, scaled(base, 0.5), false},
	} {
		s := series{lowerIsBetter: tc.lower, bound: microBound, base: tc.base, change: tc.change}
		if d := decide(s); d.fail != tc.fail {
			t.Errorf("%s: decide = %+v, want fail %v", tc.name, d, tc.fail)
		}
	}
}

func TestDecideSkipsTies(t *testing.T) {
	// Six worse pairs among eight, two of them tied: 6 of 6 non-tied
	// pairs passes the sign test, so the slowdown fails.
	base := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	change := []float64{2, 4, 6, 8, 10, 12, 7, 8}
	d := decide(series{lowerIsBetter: true, bound: microBound, base: base, change: change})
	if d.ties != 2 || d.worse != 6 || d.need != 6 || !d.fail {
		t.Errorf("decide = %+v, want 2 ties, 6 worse, 6 needed, fail", d)
	}
}

func TestSignThreshold(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 2, 4: 5, 5: 5, 6: 6, 8: 7, 10: 9} {
		if got := signThreshold(n); got != want {
			t.Errorf("signThreshold(%d) = %d, want %d", n, got, want)
		}
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runGate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := gate(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

// verdicts maps "workload metric" to the verdict of its summary row.
func verdicts(out string) map[string]string {
	v := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && (f[len(f)-1] == "pass" || f[len(f)-1] == "FAIL") {
			v[f[0]+" "+f[1]] = f[len(f)-1]
		}
	}
	return v
}

func TestGateMicroMissingAndNewBenchmarks(t *testing.T) {
	dir := t.TempDir()
	pass := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200, "BenchmarkC": 300}
	passes := []map[string]float64{pass, pass, pass, pass, pass, pass}
	base := writeFile(t, dir, "micro.base.log", microPasses([]string{"BenchmarkA", "BenchmarkB"}, passes...))

	// A new benchmark on the change side is listed and not gated.
	change := writeFile(t, dir, "micro.change.log", microPasses([]string{"BenchmarkA", "BenchmarkB", "BenchmarkC"}, passes...))
	code, out := runGate(t, base, change)
	if code != 0 || !strings.Contains(out, "new  BenchmarkC") {
		t.Errorf("new benchmark: exit %d, want 0 with BenchmarkC listed as new:\n%s", code, out)
	}

	// A gated benchmark missing on the change side fails.
	change = writeFile(t, dir, "micro.change.log", microPasses([]string{"BenchmarkA"}, passes...))
	code, out = runGate(t, base, change)
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkB") {
		t.Errorf("missing benchmark: exit %d, want 1 with BenchmarkB failed:\n%s", code, out)
	}
}

func TestGateMicroSlowdownFails(t *testing.T) {
	dir := t.TempDir()
	names := []string{"BenchmarkA", "BenchmarkB"}
	var basePasses, changePasses []map[string]float64
	for k := 0; k < 6; k++ {
		basePasses = append(basePasses, map[string]float64{"BenchmarkA": 100 + float64(k), "BenchmarkB": 50})
		changePasses = append(changePasses, map[string]float64{"BenchmarkA": 100 + float64(k), "BenchmarkB": 100 + float64(k)})
	}
	base := writeFile(t, dir, "micro.base.log", microPasses(names, basePasses...))
	change := writeFile(t, dir, "micro.change.log", microPasses(names, changePasses...))
	code, out := runGate(t, base, change)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if got, want := verdicts(out), map[string]string{"micro BenchmarkA": "pass", "micro BenchmarkB": "FAIL"}; !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}
}

func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	decl := writeFile(t, dir, "BENCHMARK.json", `{
  "workloads": [{"name": "paper-seq"}, {"name": "fleet-durable"}],
  "end_to_end": [
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "unit_heap_mb", "unit": "MB", "better": "lower", "bound": 0.1}
  ]
}`)
	set := func(name string, tps func(w string, seed int) float64, correct bool) string {
		var runs []map[string]any
		for _, w := range []string{"paper-seq", "fleet-durable"} {
			for seed := 1; seed <= 6; seed++ {
				runs = append(runs, map[string]any{
					"workload": w, "seed": seed, "correct": correct, "attempted": 10,
					"metrics": map[string]any{
						"trials_per_s": map[string]float64{"value": tps(w, seed)},
						"unit_heap_mb": map[string]float64{"value": 0.35},
					},
				})
			}
		}
		raw, err := json.Marshal(map[string]any{"seconds": 20, "runs": runs})
		if err != nil {
			t.Fatal(err)
		}
		return writeFile(t, dir, name, string(raw))
	}
	steady := func(w string, seed int) float64 { return 60 + float64(seed) }
	durableHalved := func(w string, seed int) float64 {
		if w == "fleet-durable" {
			return (60 + float64(seed)) / 2
		}
		return 60 + float64(seed)
	}

	code, out := runGate(t, "-bench", decl, set("base.json", steady, true), set("same.json", steady, true))
	if code != 0 {
		t.Errorf("unchanged: exit %d, want 0:\n%s", code, out)
	}

	code, out = runGate(t, "-bench", decl, set("base.json", steady, true), set("slow.json", durableHalved, true))
	if code != 1 {
		t.Errorf("fleet-durable halved: exit %d, want 1:\n%s", code, out)
	}
	want := map[string]string{
		"fleet-durable trials_per_s": "FAIL", "fleet-durable unit_heap_mb": "pass",
		"paper-seq trials_per_s": "pass", "paper-seq unit_heap_mb": "pass",
	}
	if got := verdicts(out); !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}

	code, out = runGate(t, "-bench", decl, set("base.json", steady, true), set("wrong.json", steady, false))
	if code != 1 || !strings.Contains(out, "change paper-seq seed 1: correct=false") {
		t.Errorf("incorrect runs: exit %d, want 1 naming them:\n%s", code, out)
	}
}
