// Command benchpairs lists paired end-to-end benchmark runs for
// scripts/bench-pairs.sh. It reads two bench result sets (the format
// `bash bench/run.sh -out` writes and `-compare` reads) holding the base
// tree's runs and the changed tree's, and pairs their untraced runs by
// workload and seed.
//
//	benchpairs -bench BENCHMARK.json BASE.json CHANGE.json
//	benchpairs -bench BENCHMARK.json -list-workloads
//
// For every end-to-end metric BENCHMARK.json declares, it prints each
// pair's two values and how many pairs the change wins or ties
// bitwise. Medians, spreads and bound verdicts are bench's own
// `-compare`; this command adds only the per-pair view.
// -list-workloads prints the declared workload names, comma-separated,
// instead.
//
// Exit status 0 means every run passed its correctness checks with no
// failed trials; 1 means some run did not (listed on stderr); 2 means
// bad usage or unreadable input. Wins and losses never change the exit
// status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
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

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	list := flag.Bool("list-workloads", false, "print the declared workload names, comma-separated, and exit")
	flag.Parse()
	decl, err := loadDeclaration(*bench)
	if err != nil {
		fail(err)
	}
	if *list {
		var names []string
		for _, w := range decl.Workloads {
			names = append(names, w.Name)
		}
		fmt.Println(strings.Join(names, ","))
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -bench BENCHMARK.json BASE.json CHANGE.json")
		os.Exit(2)
	}
	var sets [2]resultSet
	for i := range sets {
		if sets[i], err = loadSet(flag.Arg(i)); err != nil {
			fail(err)
		}
	}
	pairs, unpaired := pairUp(sets[0].Runs, sets[1].Runs)
	if len(pairs) == 0 {
		fail(fmt.Errorf("%s and %s share no untraced workload and seed", flag.Arg(0), flag.Arg(1)))
	}
	report(os.Stdout, decl.EndToEnd, pairs)
	bad := append(unpaired, incorrect(sets[0].Runs, sets[1].Runs)...)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpairs:", err)
	os.Exit(2)
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

func better(spec metricSpec, a, b float64) bool {
	if spec.Better == "lower" {
		return a < b
	}
	return a > b
}

func pct(base, cur float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/math.Abs(base))
}

func report(w io.Writer, specs []metricSpec, pairs []pair) {
	type tally struct{ wins, ties int }
	tallies := make([]tally, len(specs))
	for k, spec := range specs {
		fmt.Fprintf(w, "%s (%s, %s is better)\n", spec.Name, spec.Unit, spec.Better)
		for _, p := range pairs {
			b, c := p.base.Metrics[spec.Name].Value, p.change.Metrics[spec.Name].Value
			switch {
			case math.Float64bits(b) == math.Float64bits(c):
				tallies[k].ties++
			case better(spec, c, b):
				tallies[k].wins++
			}
			fmt.Fprintf(w, "  %-14s seed %-5d base %-12.6g change %-12.6g %s\n", p.workload, p.seed, b, c, pct(b, c))
		}
		fmt.Fprintf(w, "  change better in %d of %d pairs (%d bitwise ties)\n\n", tallies[k].wins, len(pairs), tallies[k].ties)
	}
	fmt.Fprintf(w, "%-24s %6s %5s\n", "metric", "wins", "ties")
	for k, spec := range specs {
		fmt.Fprintf(w, "%-24s %3d/%-2d %5d\n", spec.Name, tallies[k].wins, len(pairs), tallies[k].ties)
	}
}
