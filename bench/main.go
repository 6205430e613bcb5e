// Command stormbench is stormtune's end-to-end benchmark. It drives the
// system only through the public stormtune package, with every optimizer
// knob at its library default, over four closed-loop workloads: the
// paper's sequential procedure, long-history sessions, a fleet over a
// pooled HTTP serving plane, and a crash-safe warm-started fleet.
//
// From the repository root:
//
//	bash bench/run.sh                                  # every workload, untraced then traced
//	bash bench/run.sh --workload paper-seq --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seeds 1,2,3 -out a.json         # a set of runs, for -compare
//	bash bench/run.sh -compare a.json b.json           # medians, bounds and verdicts
//	bash bench/run.sh -reference                       # recompute bench/reference.json
//
// A single-workload run prints a table, then a line holding the full
// result as JSON, then a last line holding only the metrics
// BENCHMARK.json lists: {"correct", "attempted", "failed", "metrics"}.
// It exits non-zero when a correctness check fails. Durations are stated
// at a fixed reference speed of the host, which host.go measures as the
// run goes.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"stormtune"
)

func main() {
	// One P unless the caller asks otherwise: on a shared 2-vCPU host,
	// runs with two Ps (and so the library's parallel acquisition
	// scorer) swing about twice as much from run to run.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// report is the full result of one run.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Units     int               `json:"units"`
	Sessions  int               `json:"sessions"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"checks,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine is the last line of a single run's output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]valueAndUnit `json:"metrics"`
}

type valueAndUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultSet is what the multi-run mode writes and -compare reads.
type resultSet struct {
	Seconds float64  `json:"seconds"`
	Seeds   []int64  `json:"seeds"`
	Runs    []report `json:"runs"`
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stormbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed: session seeds, trial durations and archive donors derive from it")
	seedList := fs.String("seeds", "", "comma-separated seeds; the multi-run mode runs every workload once per seed (default: -seed)")
	seconds := fs.Float64("seconds", 20, "time one run measures, in seconds")
	traceFlag := fs.Int("trace", 0, "1 traces the layers and reports the per-layer metrics")
	out := fs.String("out", ".bench_build/results.json", "result file of the multi-run mode")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for archives and fleet logs")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	refMode := fs.Bool("reference", false, "recompute the quality reference into bench/reference.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "stormbench: -trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}

	switch {
	case *compare:
		return runCompare(fs.Args(), *benchFile, stdout, stderr)
	case *refMode:
		if err := writeReference(ctx, "bench/reference.json", stdout); err != nil {
			fmt.Fprintf(stderr, "stormbench: reference: %v\n", err)
			return 1
		}
		return 0
	case *workloadName != "":
		p := params{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: *workdir, sz: fullSizes}
		return single(ctx, p, stdout, stderr)
	}
	seeds := []int64{*seed}
	if *seedList != "" {
		var err error
		if seeds, err = parseSeeds(*seedList); err != nil {
			fmt.Fprintf(stderr, "stormbench: -seeds: %v\n", err)
			return 2
		}
	}
	return multi(ctx, seeds, *seconds, *workdir, *out, stdout, stderr)
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// execute runs one workload in this process.
func execute(ctx context.Context, p params) (report, error) {
	w, ok := findWorkload(p.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", p.workload)
	}
	r := newRun(p)
	if err := w.run(ctx, r); err != nil {
		return report{}, err
	}
	rep := report{
		Workload: p.workload, Seed: p.seed, Trace: p.trace, Seconds: p.seconds,
		Units: r.units, Sessions: len(r.sessions),
		Checks: r.failures, Correct: len(r.failures) == 0,
	}
	for _, s := range r.sessions {
		rep.Attempted += len(s.res.Records)
		rep.Failed += s.permanent
	}
	rep.Metrics = r.endToEnd()
	if p.trace {
		for k, v := range r.perLayer() {
			rep.Metrics[k] = v
		}
	}
	return rep, nil
}

// single runs one workload and prints its table, its full result and
// its result line.
func single(ctx context.Context, p params, stdout, stderr io.Writer) int {
	rep, err := execute(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "stormbench: %s: %v\n", p.workload, err)
		return 1
	}
	decls := endToEndMetrics
	if p.trace {
		decls = perLayerMetrics
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]valueAndUnit{}}
	for _, d := range decls {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "stormbench: %s: metric %s was not measured\n", p.workload, d.Name)
			return 1
		}
		line.Metrics[d.Name] = valueAndUnit{Value: m.Value, Unit: m.Unit}
	}
	printReport(stdout, rep)
	full, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "stormbench: %v\n", err)
		return 1
	}
	last, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "stormbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport writes a run's metrics as a table of metric, unit, value
// and sample count.
func printReport(w io.Writer, rep report) {
	fmt.Fprintf(w, "# %s seed=%d trace=%v seconds=%g units=%d sessions=%d trials=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Seconds, rep.Units, rep.Sessions, rep.Attempted)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tvalue\tn")
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%d\n", name, m.Unit, m.Value, m.N)
	}
	tw.Flush()
	if rep.Correct {
		fmt.Fprintln(w, "# checks: ok")
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "# check failed: %s\n", c)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// multi runs every workload once per seed, each run in its own
// child process, first untraced and then traced; it prints one table
// over all runs, writes every result to out, and fails when any run
// failed or any check did.
func multi(ctx context.Context, seeds []int64, seconds float64, workdir, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "stormbench: %v\n", err)
		return 1
	}
	set := resultSet{Seconds: seconds, Seeds: seeds}
	code := 0
	for _, w := range workloads {
		name := w.name
		for _, seed := range seeds {
			var pair [2]*report
			for trace := 0; trace <= 1; trace++ {
				args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-workdir", workdir}
				cmd := exec.CommandContext(ctx, exe, args...)
				cmd.Stderr = stderr
				raw, runErr := cmd.Output()
				rep, perr := parseFullResult(raw)
				if perr != nil {
					fmt.Fprintf(stderr, "stormbench: %s seed %d trace %d: %v (%v)\n", name, seed, trace, perr, runErr)
					code = 1
					continue
				}
				if runErr != nil || !rep.Correct {
					code = 1
				}
				pair[trace] = &rep
			}
			if pair[0] != nil && pair[1] != nil {
				t0, t1 := pair[0].Metrics["trials_per_s"].Value, pair[1].Metrics["trials_per_s"].Value
				pair[1].Metrics["trace.overhead_pct"] = metric{Value: 100 * (t0 - t1) / t0, Unit: "%"}
			}
			for _, rep := range pair {
				if rep != nil {
					set.Runs = append(set.Runs, *rep)
				}
			}
		}
	}
	printSummary(stdout, set)
	if err := writeJSON(out, set); err != nil {
		fmt.Fprintf(stderr, "stormbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# wrote %s\n", out)
	return code
}

// printSummary writes one table over a result set: per workload and
// metric, the median over its runs with the unit and the median sample
// count. Metrics an untraced run reports come from the untraced runs,
// the rest from the traced ones.
func printSummary(w io.Writer, set resultSet) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tn\truns")
	for _, wl := range workloads {
		untraced := map[string]bool{}
		for _, rep := range set.Runs {
			if rep.Workload == wl.name && !rep.Trace {
				for name := range rep.Metrics {
					untraced[name] = true
				}
			}
		}
		vals, ns, units := map[string][]float64{}, map[string][]float64{}, map[string]string{}
		for _, rep := range set.Runs {
			if rep.Workload != wl.name {
				continue
			}
			//lint:maporder each metric appends to its own slices, in run order
			for name, m := range rep.Metrics {
				if rep.Trace && untraced[name] {
					continue
				}
				vals[name] = append(vals[name], m.Value)
				ns[name] = append(ns[name], float64(m.N))
				units[name] = m.Unit
			}
		}
		for _, name := range sortedKeys(vals) {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.0f\t%d\n", wl.name, name, units[name], median(vals[name]), median(ns[name]), len(vals[name]))
		}
	}
	tw.Flush()
	for _, rep := range set.Runs {
		for _, c := range rep.Checks {
			fmt.Fprintf(w, "# %s seed=%d trace=%v: check failed: %s\n", rep.Workload, rep.Seed, rep.Trace, c)
		}
	}
}

// parseFullResult finds the full-result line a single run prints just
// before its result line.
func parseFullResult(raw []byte) (report, error) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return report{}, errors.New("no result in the output")
	}
	var rep report
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return report{}, fmt.Errorf("decoding the result: %w", err)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runCompare prints, for every workload and end-to-end metric, the
// medians of two result sets, the metric's bound from BENCHMARK.json and
// a verdict. It fails when any verdict is "worse".
func runCompare(files []string, benchFile string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "stormbench: -compare takes two result files: -compare A.json B.json")
		return 2
	}
	bounds, err := readBounds(benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "stormbench: %v\n", err)
		return 1
	}
	var sets [2]resultSet
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "stormbench: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			fmt.Fprintf(stderr, "stormbench: %s: %v\n", f, err)
			return 1
		}
	}
	rows := compareSets(bounds, sets[0], sets[1])
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tspread A\tspread B\tbound\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%.3f\t%.2f\t%s\n", r.workload, r.metric, r.medA, r.medB, r.spreadA, r.spreadB, r.bound, r.verdict)
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	tw.Flush()
	return code
}

type compareRow struct {
	workload, metric string
	medA, medB       float64
	spreadA, spreadB float64
	bound            float64
	verdict          string
}

// compareSets lines up the untraced runs of two result sets by workload
// and end-to-end metric, in benchmark order.
func compareSets(bounds []metricDecl, a, b resultSet) []compareRow {
	values := func(set resultSet, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set.Runs {
			if r.Workload == workload && !r.Trace {
				if m, ok := r.Metrics[metric]; ok {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range bounds {
			va, vb := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			rows = append(rows, compareRow{
				workload: w.name, metric: d.Name,
				medA: median(va), medB: median(vb),
				spreadA: spread(va), spreadB: spread(vb),
				bound:   d.Bound,
				verdict: verdict(d.Better == "lower", d.Bound, va, vb),
			})
		}
	}
	return rows
}

// benchmarkFile is the part of BENCHMARK.json the bench reads.
type benchmarkFile struct {
	EndToEnd []metricDecl `json:"end_to_end"`
}

func readBounds(path string) ([]metricDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bf.EndToEnd, nil
}

// Reference protocol: the best throughput per topology over refSessions
// sessions of refBudget steps (the paper's full-protocol budget), with
// seeds from refSeedBase up — above every seed derive hands out.
const (
	refBudget   = 180
	refSessions = 3
	refSeedBase = 1 << 40
)

// writeReference recomputes the quality reference and writes it to
// path.
func writeReference(ctx context.Context, path string, progress io.Writer) error {
	ref := reference{Budget: refBudget, Sessions: refSessions, SeedBase: refSeedBase}
	for _, name := range []string{"small", "medium"} {
		tp := buildTopology(name)
		best := 0.0
		for i := 0; i < refSessions; i++ {
			tn, err := stormtune.NewTuner(tp.t, stormtune.AsBackend(tp.sim), stormtune.TunerOptions{
				Steps: refBudget, Seed: refSeedBase + int64(i), Cluster: &tp.spec, Template: &tp.tmpl,
			})
			if err != nil {
				return err
			}
			res, err := tn.Run(ctx)
			if err != nil {
				return err
			}
			if b, ok := res.Best(); ok && b.Result.Throughput > best {
				best = b.Result.Throughput
			}
			fmt.Fprintf(progress, "%s session %d/%d: best so far %.1f\n", name, i+1, refSessions, best)
		}
		ref.Topologies = append(ref.Topologies, refEntry{Name: name, Fingerprint: stormtune.TopologyFingerprint(tp.t), Best: best})
	}
	return writeJSON(path, ref)
}
