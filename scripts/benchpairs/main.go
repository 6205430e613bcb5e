// Command benchpairs decides the paired performance gate that
// scripts/bench-pairs.sh runs. It reads the base tree's runs and the
// changed tree's runs of one half of the gate, pairs them, and decides
// every metric on the pairs:
//
//	benchpairs -bench BENCHMARK.json BASE.json CHANGE.json
//	benchpairs BASE.log CHANGE.log
//	benchpairs -bench BENCHMARK.json -list-workloads
//
// End to end, the two .json files are bench result sets (the format
// `bash bench/run.sh -out` writes and `-compare` reads). Their untraced
// runs pair by workload and seed, and every end-to-end metric
// BENCHMARK.json declares is decided per workload under its declared
// bound. Micro, any other two files are logs of repeated `go test
// -bench` passes, each starting at its "goos:" header line and printing
// every gated benchmark one or more times (-test.count). A benchmark's
// median ns/op in the k-th pass on one side pairs with its median in
// the k-th pass on the other, and is decided under microBound.
//
// A metric fails only when both hold: its median over the pairs is
// worse than the base's by more than its bound, and the change is worse
// in enough of the non-tied pairs to pass a one-sided exact sign test
// at level alpha (6 of 6, 7 of 8, 9 of 10). Bitwise ties count for
// neither side. A benchmark in the base log but not in the change log
// fails; one only in the change log is listed and not gated.
// -list-workloads prints the declared workload names, comma-separated,
// instead.
//
// Exit status 0 means no metric failed and every run is sound; 1 means
// a metric failed, a gated benchmark is missing, or some run failed its
// correctness checks, lost a trial or has no partner (listed on
// stderr); 2 means bad usage or unreadable input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	// microBound is the share by which a gated micro benchmark's median
	// ns/op may grow before the change counts as a regression.
	microBound = 0.30
	// alpha is the sign test's one-sided significance level.
	alpha = 0.05
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// run is the part of one bench report this command reads.
type run struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type resultSet struct {
	Runs []run `json:"runs"`
}

// pair is one workload and seed run on both sides.
type pair struct {
	workload     string
	seed         int64
	base, change run
}

// series is one metric on one workload: its value in every pair, on
// both sides, with the rule that decides it.
type series struct {
	workload, metric, unit string
	lowerIsBetter          bool
	bound                  float64
	labels                 []string // one per pair: "seed 3", "pair 2"
	base, change           []float64
}

// microLog is a log of `go test -bench` passes: every benchmark's
// median ns/op in each pass it ran in, in log order, and the names in
// order of first appearance.
type microLog struct {
	names []string
	ns    map[string][]float64
}

func main() {
	os.Exit(gate(os.Args[1:], os.Stdout, os.Stderr))
}

// gate runs the command on args and returns its exit status.
func gate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics and their bounds")
	list := fs.Bool("list-workloads", false, "print the declared workload names, comma-separated, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchpairs:", err)
		return 2
	}
	if *list {
		decl, err := loadDeclaration(*bench)
		if err != nil {
			return fail(err)
		}
		var names []string
		for _, w := range decl.Workloads {
			names = append(names, w.Name)
		}
		fmt.Fprintln(stdout, strings.Join(names, ","))
		return 0
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchpairs -bench BENCHMARK.json BASE.json CHANGE.json\n       benchpairs BASE.log CHANGE.log")
		return 2
	}
	var all []series
	var missing, added, bad []string
	if strings.HasSuffix(fs.Arg(0), ".json") {
		decl, err := loadDeclaration(*bench)
		if err != nil {
			return fail(err)
		}
		var sets [2]resultSet
		for i := range sets {
			if sets[i], err = loadSet(fs.Arg(i)); err != nil {
				return fail(err)
			}
		}
		pairs, unpaired := pairUp(sets[0].Runs, sets[1].Runs)
		if len(pairs) == 0 {
			return fail(fmt.Errorf("%s and %s share no untraced workload and seed", fs.Arg(0), fs.Arg(1)))
		}
		all = endToEndSeries(decl.EndToEnd, pairs)
		bad = append(unpaired, incorrect(sets[0].Runs, sets[1].Runs)...)
	} else {
		var logs [2]microLog
		for i := range logs {
			var err error
			if logs[i], err = loadMicro(fs.Arg(i)); err != nil {
				return fail(err)
			}
		}
		if len(logs[0].names) == 0 {
			return fail(fmt.Errorf("%s holds no benchmark results", fs.Arg(0)))
		}
		all, missing, added, bad = pairMicro(logs[0], logs[1])
	}
	failed := report(stdout, all)
	for _, name := range added {
		fmt.Fprintf(stdout, "new  %s: on the change side only, not gated\n", name)
	}
	for _, name := range missing {
		fmt.Fprintf(stdout, "FAIL %s: gated on the base side, missing on the change side\n", name)
	}
	for _, b := range bad {
		fmt.Fprintln(stderr, b)
	}
	if failed || len(missing) > 0 || len(bad) > 0 {
		return 1
	}
	return 0
}

func loadDeclaration(path string) (declaration, error) {
	var decl declaration
	raw, err := os.ReadFile(path)
	if err != nil {
		return decl, err
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return decl, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return decl, fmt.Errorf("%s declares no end-to-end metrics", path)
	}
	return decl, nil
}

func loadSet(path string) (resultSet, error) {
	var set resultSet
	raw, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func loadMicro(path string) (microLog, error) {
	l := microLog{ns: map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return l, err
	}
	defer f.Close()
	// pass holds the current pass's results; a "goos:" header line, which
	// `go test -bench` prints once at the start of every pass, ends it.
	pass := map[string][]float64{}
	endPass := func() {
		for _, name := range l.names {
			if rs := pass[name]; len(rs) > 0 {
				l.ns[name] = append(l.ns[name], median(rs))
			}
		}
		clear(pass)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "goos:") {
			endPass()
			continue
		}
		name, ns, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		if _, seen := l.ns[name]; !seen {
			l.names = append(l.names, name)
			l.ns[name] = nil
		}
		pass[name] = append(pass[name], ns)
	}
	if err := sc.Err(); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	endPass()
	return l, nil
}

// parseBenchLine parses one "BenchmarkX-8  N  value ns/op [value unit]..."
// line into the benchmark's name, with the -N GOMAXPROCS suffix
// stripped, and its ns/op; ok is false for any other line.
func parseBenchLine(line string) (name string, nsPerOp float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", 0, false
	}
	// The rest alternates "value unit".
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, false
		}
		if fields[i+1] == "ns/op" {
			nsPerOp, ok = v, true
		}
	}
	if !ok {
		return "", 0, false
	}
	return name, nsPerOp, true
}

// pairMicro pairs every benchmark's median in the k-th pass on the base
// side with its median in the k-th pass on the change side. It names
// the benchmarks only the base side ran (missing) and only the change
// side ran (added), and every benchmark that ran in different numbers
// of passes on the two sides, a sign of a pass that did not finish.
func pairMicro(base, change microLog) (all []series, missing, added, bad []string) {
	for _, name := range base.names {
		b, c := base.ns[name], change.ns[name]
		switch {
		case len(c) == 0:
			missing = append(missing, name)
			continue
		case len(b) != len(c):
			bad = append(bad, fmt.Sprintf("%s: %d base passes, %d change passes", name, len(b), len(c)))
			continue
		}
		s := series{workload: "micro", metric: name, unit: "ns/op", lowerIsBetter: true, bound: microBound, base: b, change: c}
		for k := range b {
			s.labels = append(s.labels, fmt.Sprintf("pair %d", k+1))
		}
		all = append(all, s)
	}
	for _, name := range change.names {
		if _, ok := base.ns[name]; !ok {
			added = append(added, name)
		}
	}
	return all, missing, added, bad
}

// pairUp matches the untraced runs of both sides by workload and seed,
// in workload-then-seed order, and names every run left without a
// partner.
func pairUp(base, change []run) ([]pair, []string) {
	type key struct {
		workload string
		seed     int64
	}
	byKey := map[key]*pair{}
	for i, side := range [][]run{base, change} {
		for _, r := range side {
			if r.Trace {
				continue
			}
			k := key{r.Workload, r.Seed}
			p := byKey[k]
			if p == nil {
				p = &pair{workload: r.Workload, seed: r.Seed}
				byKey[k] = p
			}
			if i == 0 {
				p.base = r
			} else {
				p.change = r
			}
		}
	}
	var pairs []pair
	var unpaired []string
	for _, p := range byKey {
		switch {
		case p.base.Workload == "":
			unpaired = append(unpaired, fmt.Sprintf("%s seed %d: no base run", p.workload, p.seed))
		case p.change.Workload == "":
			unpaired = append(unpaired, fmt.Sprintf("%s seed %d: no change run", p.workload, p.seed))
		default:
			pairs = append(pairs, *p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].workload != pairs[j].workload {
			return pairs[i].workload < pairs[j].workload
		}
		return pairs[i].seed < pairs[j].seed
	})
	sort.Strings(unpaired)
	return pairs, unpaired
}

// endToEndSeries lays pairs, sorted by workload, out as one series per
// workload and declared metric.
func endToEndSeries(specs []metricSpec, pairs []pair) []series {
	var all []series
	for start, end := 0, 0; start < len(pairs); start = end {
		for end < len(pairs) && pairs[end].workload == pairs[start].workload {
			end++
		}
		for _, spec := range specs {
			s := series{workload: pairs[start].workload, metric: spec.Name, unit: spec.Unit,
				lowerIsBetter: spec.Better == "lower", bound: spec.Bound}
			for _, p := range pairs[start:end] {
				s.labels = append(s.labels, fmt.Sprintf("seed %d", p.seed))
				s.base = append(s.base, p.base.Metrics[spec.Name].Value)
				s.change = append(s.change, p.change.Metrics[spec.Name].Value)
			}
			all = append(all, s)
		}
	}
	return all
}

// incorrect lists every run that failed a correctness check or lost a
// trial.
func incorrect(base, change []run) []string {
	var out []string
	for _, side := range []struct {
		name string
		rs   []run
	}{{"base", base}, {"change", change}} {
		for _, r := range side.rs {
			if !r.Correct || r.Failed > 0 {
				out = append(out, fmt.Sprintf("%s %s seed %d: correct=%v, %d of %d trials failed",
					side.name, r.Workload, r.Seed, r.Correct, r.Failed, r.Attempted))
			}
		}
	}
	return out
}

// decision is the gate's verdict on one series.
type decision struct {
	medBase, medChange  float64
	better, worse, ties int
	need                int // worse pairs the sign test needs
	fail                bool
}

// decide applies the gate's rule to s: the median worsens beyond the
// bound, and the change is worse in at least signThreshold of the
// non-tied pairs.
func decide(s series) decision {
	d := decision{medBase: median(s.base), medChange: median(s.change)}
	for i, b := range s.base {
		c := s.change[i]
		switch {
		case math.Float64bits(b) == math.Float64bits(c):
			d.ties++
		case worsening(s.lowerIsBetter, b, c) > 0:
			d.worse++
		default:
			d.better++
		}
	}
	d.need = signThreshold(d.better + d.worse)
	d.fail = worsening(s.lowerIsBetter, d.medBase, d.medChange) > s.bound && d.worse >= d.need
	return d
}

// signThreshold is the least number of worse pairs, out of n non-tied
// pairs, for which a one-sided exact sign test rejects "the change is
// as likely better as worse" at level alpha: the least k with
// P(X ≥ k) ≤ alpha for X ~ Binomial(n, 1/2). It is n+1 when no count
// is enough, which is the case for n ≤ 4.
func signThreshold(n int) int {
	tail, c := 0.0, 1.0 // P(X ≥ k) and C(n, k), from k = n down
	k := n
	for ; k > 0; k-- {
		tail += math.Ldexp(c, -n)
		if tail > alpha {
			break
		}
		c *= float64(k) / float64(n-k+1)
	}
	return k + 1
}

// worsening is by what share of base the value cur is worse than base:
// positive when worse, negative when better, and infinite when base is
// zero and cur is not.
func worsening(lowerIsBetter bool, base, cur float64) float64 {
	d := cur - base
	if !lowerIsBetter {
		d = -d
	}
	if base == 0 {
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(base)
}

// median of an unsorted sample; zero for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func pct(base, cur float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/math.Abs(base))
}

// report prints every series pair by pair, then one summary row per
// series with its decision, and says whether any series failed.
func report(w io.Writer, all []series) (failed bool) {
	decisions := make([]decision, len(all))
	for i, s := range all {
		d := decide(s)
		decisions[i] = d
		better := "higher"
		if s.lowerIsBetter {
			better = "lower"
		}
		fmt.Fprintf(w, "%s %s (%s, %s is better)\n", s.workload, s.metric, s.unit, better)
		for k, label := range s.labels {
			b, c := s.base[k], s.change[k]
			fmt.Fprintf(w, "  %-8s base %-12.6g change %-12.6g %s\n", label, b, c, pct(b, c))
		}
		fmt.Fprintf(w, "  change better in %d, worse in %d, tied in %d of %d pairs\n\n", d.better, d.worse, d.ties, len(s.labels))
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian base\tmedian change\tchange\tbound\tworse/non-tied\tneeded\tverdict")
	for i, s := range all {
		d := decisions[i]
		verdict := "pass"
		if d.fail {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.2f\t%d/%d\t%d\t%s\n", s.workload, s.metric,
			d.medBase, d.medChange, pct(d.medBase, d.medChange), s.bound, d.worse, d.better+d.worse, d.need, verdict)
	}
	tw.Flush()
	return failed
}
