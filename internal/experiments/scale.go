package experiments

import (
	"os"

	"stormtune/internal/bo"
	"stormtune/internal/core"
)

// Scale trades fidelity against wall-clock time. FullScale reproduces
// the paper's protocol; QuickScale is a reduced version for benches and
// CI that preserves the qualitative shapes.
type Scale struct {
	// Steps is the per-pass evaluation budget (paper: 60).
	Steps int
	// Steps180 is the extended budget for the bo180 strategy.
	Steps180 int
	// Passes per strategy (paper: 2, keep the better).
	Passes int
	// BestReruns of the winning configuration (paper: 30).
	BestReruns int
	// IncludeBO180 adds the 180-step strategy to the grid.
	IncludeBO180 bool
	// Sizes selects the synthetic topologies to run.
	Sizes []string
	// Seed decorrelates the whole experiment.
	Seed int64
	// BO tunes the optimizer's decision-time/quality tradeoff; every
	// strategy of every experiment starts from it.
	BO bo.Knobs
}

// boKnobs sets the optimizer's candidate, hyper-sample and local-search
// budgets, with the GP conditioned on a window of the 60 most recent
// observations.
func boKnobs(candidates, hyperSamples, localIters int) bo.Knobs {
	return bo.Knobs{
		Candidates: candidates, HyperSamples: hyperSamples, LocalSearchIters: localIters,
		MaxGPPoints: 60,
	}
}

// FullScale is the paper's protocol. Setting STORMTUNE_BO180=0 drops
// the 180-step strategy (the grid's dominant cost) while keeping
// everything else at paper scale.
func FullScale() Scale {
	sc := Scale{
		Steps: 60, Steps180: 180, Passes: 2, BestReruns: 30,
		IncludeBO180: true,
		Sizes:        []string{"small", "medium", "large"},
		Seed:         1,
		BO:           boKnobs(300, 4, 8),
	}
	if os.Getenv("STORMTUNE_BO180") == "0" {
		sc.IncludeBO180 = false
	}
	// STORMTUNE_FAST_GRID=1 keeps the full experimental protocol
	// (steps, passes, re-runs, sizes) but dials the optimizer's
	// candidate budget down to bound wall-clock time.
	if os.Getenv("STORMTUNE_FAST_GRID") == "1" {
		sc.BO = boKnobs(150, 2, 4)
	}
	return sc
}

// QuickScale keeps benches fast while preserving shapes.
func QuickScale() Scale {
	return Scale{
		Steps: 25, Steps180: 50, Passes: 1, BestReruns: 8,
		IncludeBO180: false,
		Sizes:        []string{"small", "medium"},
		Seed:         1,
		BO:           boKnobs(150, 2, 4),
	}
}

// ScaleFromEnv returns FullScale when STORMTUNE_FULL=1 is set,
// QuickScale otherwise. The bench harness uses it so that
// `go test -bench .` stays fast by default.
func ScaleFromEnv() Scale {
	if os.Getenv("STORMTUNE_FULL") == "1" {
		return FullScale()
	}
	return QuickScale()
}

// boOptions converts the scale into strategy options.
func (s Scale) boOptions() core.BOOptions {
	return core.BOOptions{Opt: bo.Options{Knobs: s.BO}}
}

// protocol converts the scale into the §V-A protocol.
func (s Scale) protocol(steps, stopAfterZeros int) core.Protocol {
	return core.Protocol{
		Steps:          steps,
		Passes:         s.Passes,
		BestReruns:     s.BestReruns,
		StopAfterZeros: stopAfterZeros,
		Seed:           s.Seed,
	}
}
