package experiments

import (
	"fmt"

	"stormtune/internal/bo"
	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// Ablation studies the optimizer design choices DESIGN.md calls out,
// on the medium topology with full time imbalance (the condition where
// the surrogate quality matters most): acquisition function (EI — the
// paper's choice — vs PI vs UCB), hyperparameter marginalization vs a
// MAP point estimate, and baseline candidate seeding on vs off.
func Ablation(sc Scale) *Report {
	spec := cluster.Paper()
	t := topo.BuildSynthetic("medium", topo.Condition{TimeImbalance: 1}, sc.Seed+3)
	template := storm.DefaultSyntheticConfig(t, 1)
	ev := storm.NewFluidSim(t, spec, storm.SinkTuples, sc.Seed+42)

	r := &Report{
		ID:      "ablation",
		Title:   "BO design ablation on medium/100% TiIm: best throughput after the step budget",
		Columns: []string{"variant", "throughput", "steps-to-best", "sec/step"},
	}

	// variant is the scale's optimizer with the variant's acquisition
	// and hyper-sample count.
	variant := func(acq bo.Acquisition, hyperSamples int) bo.Options {
		o := sc.boOptions().Opt
		o.Acq, o.HyperSamples = acq, hyperSamples
		return o
	}
	run := func(label string, opt bo.Options) {
		factory := func(pass int) core.Strategy {
			o := core.BOOptions{Set: core.Hints, Seed: sc.Seed + 500 + int64(pass)*7919, Opt: opt}
			return core.NewBO(t, spec, template, o)
		}
		out := core.RunProtocol(core.AsBackend(ev), factory, sc.protocol(sc.Steps, 0))
		sec := 0.0
		for _, s := range out.MeanDecisionSec {
			sec += s
		}
		sec /= float64(len(out.MeanDecisionSec))
		r.AddRow(label,
			fmt.Sprintf("%.0f [%.0f..%.0f]", out.Summary.Mean, out.Summary.Min, out.Summary.Max),
			fmt.Sprintf("%v", out.StepsToBest),
			fmt.Sprintf("%.4f", sec))
	}

	hs := sc.BO.HyperSamples
	if hs < 2 {
		hs = 2
	}
	run("ei+marginalized (paper)", variant(bo.EI{}, hs))
	run("pi", variant(bo.PI{}, hs))
	run("ucb(k=2)", variant(bo.UCB{Kappa: 2}, hs))
	run("ei+map-hypers", variant(bo.EI{}, 1))

	// Seeding off: replace the diagonal seeds with an empty set.
	noSeeds := variant(bo.EI{}, hs)
	noSeeds.SeedCandidates = [][]float64{make([]float64, t.N()+1)}
	factory := func(pass int) core.Strategy {
		return core.NewBO(t, spec, template, core.BOOptions{
			Set: core.Hints, Seed: sc.Seed + 900 + int64(pass)*7919, Opt: noSeeds})
	}
	out := core.RunProtocol(core.AsBackend(ev), factory, sc.protocol(sc.Steps, 0))
	r.AddRow("ei, no baseline seeds",
		fmt.Sprintf("%.0f [%.0f..%.0f]", out.Summary.Mean, out.Summary.Min, out.Summary.Max),
		fmt.Sprintf("%v", out.StepsToBest), "-")

	r.AddNote("EI with slice-sampled hyperparameters is the Spearmint configuration the paper uses; the ablation shows what each ingredient buys on a high-dimensional hint space")
	return r
}
