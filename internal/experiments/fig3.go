package experiments

import (
	"context"
	"fmt"

	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// Fig3 reproduces the network-utilization figure: the average NIC load
// per worker (MB/s) while running each of the four topologies under a
// representative tuned configuration. The paper's observation — the
// gigabit network (128 MB/s) is never close to saturated — must hold.
func Fig3(sc Scale) *Report {
	spec := cluster.Paper()
	r := &Report{
		ID:      "fig3",
		Title:   "Average network load per worker (MB/s)",
		Columns: []string{"topology", "MB/s per worker", "NIC utilization"},
	}
	addRow := func(name string, res storm.Result) {
		mbs := res.NetworkBytesPerWorker / 1e6
		r.AddRow(name, fmt.Sprintf("%.2f", mbs),
			fmt.Sprintf("%.1f%%", 100*res.NetworkBytesPerWorker/spec.NICBytesPerSec))
	}
	// Synthetic topologies under the homogeneous condition, tuned with
	// a short informed ascent (the configurations the measurement runs
	// of §V-A actually executed).
	for _, size := range []string{"large", "medium", "small"} {
		t := topo.BuildSynthetic(size, topo.Condition{}, sc.Seed+3)
		ev := storm.NewFluidSim(t, spec, storm.SinkTuples, sc.Seed+42)
		sess := core.NewSession(core.NewIPLA(t, storm.DefaultSyntheticConfig(t, 1)), core.AsBackend(ev),
			core.SessionOptions{MaxSteps: sc.Steps, StopAfterZeros: 3})
		tr, _ := sess.Run(context.Background())
		best, ok := tr.Best()
		if !ok {
			r.AddRow(size, "-", "-")
			continue
		}
		addRow(size, best.Result)
	}
	// Sundog under its manually tuned deployment configuration.
	sd := topo.Sundog()
	ev := storm.NewFluidSim(sd, spec, storm.SourceTuples, sc.Seed+42)
	addRow("sundog", ev.Run(storm.DefaultConfig(sd, 11), 0))
	r.AddNote("paper shape: all loads are single-digit MB/s per worker, far below the 128 MB/s gigabit ceiling; sundog is the most network-hungry")
	return r
}
