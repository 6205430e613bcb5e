package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"stormtune/internal/topo"
)

// tinyScale keeps unit tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{
		Steps: 6, Steps180: 8, Passes: 1, BestReruns: 3,
		IncludeBO180: false,
		Sizes:        []string{"small"},
		Seed:         1,
		BO:           boKnobs(60, 1, 2),
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 7)
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	r.CSV(&csv)
	if !strings.HasPrefix(csv.String(), "a,bb\n1,2\n") {
		t.Fatalf("csv wrong: %q", csv.String())
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := Table2()
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(r.Rows))
	}
	if r.Rows[0][0] != "small" || r.Rows[2][0] != "large" {
		t.Fatalf("row order wrong: %v", r.Rows)
	}
}

func TestTable3(t *testing.T) {
	r := Table3()
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(r.Rows))
	}
}

// skipSlow gates the experiment-protocol tests (each runs full
// optimization passes) so `go test -short ./...` finishes in seconds.
func skipSlow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping slow experiment protocol in -short mode")
	}
}

func TestFig3NeverSaturatesNetwork(t *testing.T) {
	skipSlow(t)
	r := Fig3(tinyScale())
	if len(r.Rows) != 4 {
		t.Fatalf("want 4 topologies, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		util := row[2]
		if util == "-" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(util, "%"), 64)
		if err != nil {
			t.Fatalf("bad utilization cell %q: %v", util, err)
		}
		if v > 60 {
			t.Fatalf("topology %s saturates the network: %s", row[0], util)
		}
	}
}

func TestGridRunsAndFiguresRender(t *testing.T) {
	skipSlow(t)
	sc := tinyScale()
	g := GetGrid(sc)
	if len(g.Cells) != len(topo.Conditions())*len(sc.Sizes)*len(g.Strategies()) {
		t.Fatalf("grid has %d cells", len(g.Cells))
	}
	for _, fig := range []func(*GridData) *Report{Fig4, Fig5, Fig6, Fig7} {
		r := fig(g)
		if len(r.Rows) == 0 {
			t.Fatalf("%s produced no rows", r.ID)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Fatal("empty render")
		}
	}
	// Cache hit returns the same pointer.
	if GetGrid(sc) != g {
		t.Fatal("grid cache miss for identical scale")
	}
}

func TestSundogSeriesAndFig8(t *testing.T) {
	skipSlow(t)
	sc := tinyScale()
	d := GetSundog(sc)
	for _, label := range []string{"pla.h", "bo.h", "bo.h-bs-bp", "bo.bs-bp-cc"} {
		if _, ok := d.Outcomes[label]; !ok {
			t.Fatalf("missing outcome %s", label)
		}
	}
	a := Fig8a(d)
	if len(a.Rows) < 4 {
		t.Fatalf("fig8a rows = %d", len(a.Rows))
	}
	b := Fig8b(d)
	if len(b.Rows) == 0 {
		t.Fatal("fig8b empty")
	}
}

func TestAsyncScalingShapes(t *testing.T) {
	skipSlow(t)
	r := AsyncScaling(tinyScale())
	if len(r.Rows) != 3 {
		t.Fatalf("want sequential/batch/async rows, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Columns) {
			t.Fatalf("row %v does not match columns %v", row, r.Columns)
		}
	}
	if r.Rows[0][0] != "sequential" || r.Rows[1][0] != "batch" || r.Rows[2][0] != "async" {
		t.Fatalf("unexpected mode order: %v", r.Rows)
	}
}

func TestRegistryRunAll(t *testing.T) {
	skipSlow(t)
	sc := tinyScale()
	for _, id := range IDs() {
		var buf bytes.Buffer
		if err := Run(id, sc, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
	if err := Run("nope", sc, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAblationRuns(t *testing.T) {
	skipSlow(t)
	sc := tinyScale()
	sc.Steps = 4
	sc.BestReruns = 2
	r := Ablation(sc)
	if len(r.Rows) != 5 {
		t.Fatalf("ablation rows = %d, want 5 variants", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1] == "" || row[1] == "0 [0..0]" {
			t.Fatalf("variant %s found nothing: %v", row[0], row)
		}
	}
}

func TestBatchScalingReport(t *testing.T) {
	skipSlow(t)
	sc := tinyScale()
	r := BatchScaling(sc)
	if len(r.Rows) != 3 {
		t.Fatalf("batch report rows = %d, want 3 (q=1,2,4)", len(r.Rows))
	}
	if r.Rows[0][0] != "1" || r.Rows[1][0] != "2" || r.Rows[2][0] != "4" {
		t.Fatalf("batch sizes wrong: %v", r.Rows)
	}
	// Every batch size must find a working configuration, and the
	// batched runs must stay within 10% of the best result (the
	// acceptance bound for constant-liar parity).
	for _, row := range r.Rows {
		if row[3] == "0" {
			t.Fatalf("q=%s found nothing: %v", row[0], row)
		}
		var regret float64
		if _, err := fmt.Sscanf(row[4], "%f%%", &regret); err != nil {
			t.Fatalf("bad regret cell %q: %v", row[4], err)
		}
		if regret > 10 {
			t.Fatalf("q=%s regret %.1f%% exceeds 10%%", row[0], regret)
		}
	}
}

func TestScaleFromEnv(t *testing.T) {
	t.Setenv("STORMTUNE_FULL", "")
	if got := ScaleFromEnv(); got.Steps != QuickScale().Steps {
		t.Fatalf("default should be quick, got %+v", got)
	}
	t.Setenv("STORMTUNE_FULL", "1")
	if got := ScaleFromEnv(); got.Steps != FullScale().Steps {
		t.Fatalf("STORMTUNE_FULL=1 should be full, got %+v", got)
	}
}
