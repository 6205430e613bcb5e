package experiments

import (
	"context"
	"fmt"
	"time"

	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// BatchScaling measures the concurrent-trials extension on the
// synthetic DES workload: the same evaluation budget is spent
// sequentially (q=1, the paper's procedure) and in constant-liar
// batches of 2 and 4 concurrently evaluated trial deployments. The
// report shows, per batch size, the wall-clock time of the pass, the
// best throughput found, and the regret relative to the best result
// across all batch sizes — batching must cut wall-clock without giving
// up more than a few percent of final throughput.
func BatchScaling(sc Scale) *Report {
	spec := cluster.Small()
	t := topo.BuildSynthetic("small", topo.Condition{}, sc.Seed)
	template := storm.DefaultSyntheticConfig(t, 1)
	ev := storm.NewBatchDES(t, spec, storm.SinkTuples)

	r := &Report{
		ID:      "batch",
		Title:   "concurrent trials: sequential vs constant-liar batches on the small DES workload",
		Columns: []string{"q", "wall-clock", "rounds", "best-throughput", "regret", "sec/step"},
	}

	type row struct {
		q      int
		wall   time.Duration
		rounds int
		best   float64
		decSec float64
	}
	var rows []row
	bestOverall := 0.0
	for _, q := range []int{1, 2, 4} {
		o := sc.boOptions()
		o.Seed = sc.Seed + 17
		strat := core.NewBO(t, spec, template, o)
		sess := core.NewSession(strat, core.AsBackend(ev), core.SessionOptions{MaxSteps: sc.Steps})
		start := time.Now()
		tr, _ := sess.RunBatch(context.Background(), q)
		wall := time.Since(start)
		best, ok := tr.Best()
		b := 0.0
		if ok {
			b = best.Result.Throughput
		}
		if b > bestOverall {
			bestOverall = b
		}
		rounds := (len(tr.Records) + q - 1) / q
		rows = append(rows, row{q: q, wall: wall, rounds: rounds, best: b, decSec: tr.MeanDecisionSeconds()})
	}
	for _, w := range rows {
		regret := 0.0
		if bestOverall > 0 {
			regret = 100 * (bestOverall - w.best) / bestOverall
		}
		r.AddRow(
			fmt.Sprintf("%d", w.q),
			fmt.Sprintf("%.3fs", w.wall.Seconds()),
			fmt.Sprintf("%d", w.rounds),
			fmt.Sprintf("%.0f", w.best),
			fmt.Sprintf("%.1f%%", regret),
			fmt.Sprintf("%.4f", w.decSec),
		)
	}
	r.AddNote("same %d-step budget per row; q>1 dispatches constant-liar batches evaluated concurrently", sc.Steps)
	r.AddNote("this cluster could host up to %d concurrent trials of the default configuration",
		spec.MaxConcurrentTrials(template.TotalTasks()))
	return r
}
