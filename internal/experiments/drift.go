package experiments

import (
	"context"
	"fmt"

	"stormtune/internal/cluster"
	"stormtune/internal/core"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
	"stormtune/internal/watch"
)

// The drift experiment family measures what the paper's offline tuner
// cannot: performance over *time* under a drifting workload, and how
// much of the drift-induced loss an online retuning policy recovers.
// Three policies run the identical scenario:
//
//   - never:        monitor disabled — tune once, hold forever (the
//     paper's protocol extended in time).
//   - threshold:    retune on trigger with a full-cube search box —
//     a warm-started restart, maximally aggressive.
//   - conservative: retune on trigger inside a trust region around the
//     incumbent (ContTune-style Big/Small widening), bounding how far
//     any retune trial may stray.
//
// Loss is offered-but-undelivered throughput integrated over simulated
// time (tuples), so a retune's transient cost and its steady-state
// payoff land in the same unit; recovery is the fraction of the
// never-policy's loss a policy eliminates.

// DriftScenario is one time-varying workload shape.
type DriftScenario struct {
	Name     string
	Profile  storm.DriftProfile
	BaseLoad float64
}

// DriftPolicy is one online-retuning stance.
type DriftPolicy struct {
	Name    string
	Monitor watch.MonitorOptions
	Retune  core.RetuneOptions
}

// DriftOutcome summarizes one (scenario, policy) watch.
type DriftOutcome struct {
	Scenario string
	Policy   string
	// Episodes is the number of retune episodes the watch ran.
	Episodes int
	// Loss is offered-but-undelivered tuples integrated from the end of
	// the initial tune to the horizon (hold samples weighted by the
	// hold interval, retune trials by the trial cost).
	Loss float64
	// Recovery is 1 − Loss/Loss(never) for the same scenario.
	Recovery float64
	// WorstTransient is the minimum over retune trials of
	// delivered/delivered-at-trigger — how deep the exploration dipped
	// below what the degraded incumbent was still delivering. 1 when no
	// retune ran.
	WorstTransient float64
	// FinalDelivered is the last monitoring sample's throughput.
	FinalDelivered float64
}

// DriftData is the raw family output keyed "scenario/policy".
type DriftData struct {
	Scenarios []DriftScenario
	Policies  []DriftPolicy
	Outcomes  map[string]DriftOutcome
}

// driftTopo is the family's fixed topology: the 4-node diamond whose
// capacity spans ~50..625 tuples/s across the configuration space —
// wide enough that a flash crowd outgrows a lazily chosen
// configuration while headroom for recovery exists.
func driftTopo() *topo.Topology {
	return topo.MustNew("drift",
		[]topo.Node{
			{Name: "s", Kind: topo.Spout, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "a", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "b", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
			{Name: "c", Kind: topo.Bolt, TimeUnits: 20, Selectivity: 1, TupleBytes: 100},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
}

func driftSpec() cluster.Spec {
	return cluster.Spec{Machines: 8, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 128e6, TaskSlotsPerMachine: 16, ThrashTasksPerCore: 4}
}

// DriftScenarios returns the family's workload grid: an abrupt large
// flash crowd and a slower, smaller ramp.
func DriftScenarios() []DriftScenario {
	return []DriftScenario{
		{Name: "flash-x2", Profile: storm.FlashCrowd{At: 2000, Magnitude: 2}, BaseLoad: 300},
		{Name: "ramp-x1.5", Profile: storm.FlashCrowd{At: 2000, Magnitude: 1.5, Ramp: 600}, BaseLoad: 300},
	}
}

// DriftPolicies returns the family's policy grid.
func DriftPolicies() []DriftPolicy {
	monitor := watch.MonitorOptions{Window: 6, Cooldown: 1200}
	return []DriftPolicy{
		{Name: "never", Monitor: watch.MonitorOptions{Disabled: true}},
		// A degenerate trust region spanning the whole unit cube: the
		// trigger machinery with none of the conservatism.
		{Name: "threshold", Monitor: monitor,
			Retune: core.RetuneOptions{Radius: 1, RadiusMin: 1, RadiusMax: 1}},
		{Name: "conservative", Monitor: monitor},
	}
}

// driftCollector reduces a watch's event stream to the family metrics.
// Events arrive in order from the watch's single run goroutine.
type driftCollector struct {
	holdInterval float64
	trialCost    float64

	inRetune       bool
	atTrigger      float64 // delivered throughput of the last pre-trigger sample
	lastDelivered  float64
	loss           float64
	worstTransient float64
	episodes       int
}

func (d *driftCollector) OnEvent(e core.Event) {
	switch ev := e.(type) {
	case core.HoldSampled:
		d.lastDelivered = ev.Result.Throughput
		d.loss += (ev.Result.OfferedLoad - ev.Result.Throughput) * d.holdInterval
	case core.RetuneTriggered:
		d.inRetune = true
		d.episodes++
		d.atTrigger = d.lastDelivered
	case core.RetuneCompleted:
		d.inRetune = false
	case core.TrialCompleted:
		if !d.inRetune {
			return // initial-tune trials are identical across policies
		}
		d.loss += (ev.Result.OfferedLoad - ev.Result.Throughput) * d.trialCost
		if d.atTrigger > 0 {
			if rel := ev.Result.Throughput / d.atTrigger; rel < d.worstTransient {
				d.worstTransient = rel
			}
		}
	}
}

// RunDrift executes the full scenario × policy grid.
func RunDrift(sc Scale) *DriftData {
	data := &DriftData{
		Scenarios: DriftScenarios(),
		Policies:  DriftPolicies(),
		Outcomes:  map[string]DriftOutcome{},
	}
	tp := driftTopo()
	spec := driftSpec()
	for _, scen := range data.Scenarios {
		for _, pol := range data.Policies {
			f := storm.NewFluidSim(tp, spec, storm.SinkTuples, sc.Seed)
			f.Noise = storm.NoNoise()
			ev := storm.Drifting(f, scen.Profile, scen.BaseLoad)
			col := &driftCollector{holdInterval: 60, trialCost: 60, worstTransient: 1}
			boOpts := sc.boOptions()
			boOpts.Seed = sc.Seed
			c := watch.New(tp, spec, storm.DefaultSyntheticConfig(tp, 1),
				core.AsBackend(ev), boOpts, watch.Options{
					Plan: watch.Plan{
						Steps:        sc.Steps,
						RetuneSteps:  10,
						TrialCost:    60,
						HoldInterval: 60,
						Horizon:      6000,
					},
					Monitor:  pol.Monitor,
					Retune:   pol.Retune,
					Observer: col,
				})
			if err := c.Run(context.Background()); err != nil {
				// The simulated watch only errors on a broken setup; record
				// it loudly rather than panicking mid-report.
				data.Outcomes[scen.Name+"/"+pol.Name] = DriftOutcome{
					Scenario: scen.Name, Policy: pol.Name, Recovery: -1,
				}
				continue
			}
			data.Outcomes[scen.Name+"/"+pol.Name] = DriftOutcome{
				Scenario:       scen.Name,
				Policy:         pol.Name,
				Episodes:       c.Episodes(),
				Loss:           col.loss,
				WorstTransient: col.worstTransient,
				FinalDelivered: col.lastDelivered,
			}
		}
		// Recovery is relative to the never policy of the same scenario.
		never := data.Outcomes[scen.Name+"/never"]
		for _, pol := range data.Policies {
			key := scen.Name + "/" + pol.Name
			o := data.Outcomes[key]
			if never.Loss > 0 {
				o.Recovery = 1 - o.Loss/never.Loss
			}
			data.Outcomes[key] = o
		}
	}
	return data
}

// Drift renders the family as a report: regret over time collapsed to
// integrated loss, plus the retune-transient depth.
func Drift(d *DriftData) *Report {
	r := &Report{
		ID:    "drift",
		Title: "Online retuning under drifting load (loss = offered−delivered integrated over sim time)",
		Columns: []string{"scenario", "policy", "episodes", "loss (tuples)",
			"recovery", "worst transient", "final delivered"},
	}
	for _, scen := range d.Scenarios {
		for _, pol := range d.Policies {
			o := d.Outcomes[scen.Name+"/"+pol.Name]
			r.AddRow(scen.Name, pol.Name,
				fmt.Sprintf("%d", o.Episodes),
				fmt.Sprintf("%.0f", o.Loss),
				fmt.Sprintf("%.0f%%", 100*o.Recovery),
				fmt.Sprintf("%.2f", o.WorstTransient),
				fmt.Sprintf("%.1f", o.FinalDelivered))
		}
	}
	r.AddNote("recovery: fraction of the never-policy's loss a policy eliminates; acceptance floor for conservative is 50%% under flash-x2")
	r.AddNote("worst transient: deepest retune-trial throughput relative to the degraded incumbent at trigger time (1.00 = no dip)")
	return r
}
