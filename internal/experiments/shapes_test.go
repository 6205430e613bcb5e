package experiments

import (
	"testing"

	"stormtune/internal/topo"
)

// shapeScale is big enough for the paper's qualitative orderings to
// emerge, small enough for CI.
func shapeScale() Scale {
	return Scale{
		Steps: 25, Steps180: 30, Passes: 1, BestReruns: 6,
		Sizes: []string{"small", "medium"},
		Seed:  1,
		BO:    boKnobs(150, 2, 4),
	}
}

// TestShapeIplaDominatesHomogeneous pins the paper's top-left Figure 4
// finding: on homogeneous medium topologies the informed linear
// strategy dominates, and Bayesian optimization cannot beat it.
func TestShapeIplaDominatesHomogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	g := GetGrid(shapeScale())
	cond := topo.Condition{}
	ipla, _ := g.Get(cond, "medium", "ipla")
	pla, _ := g.Get(cond, "medium", "pla")
	bo, _ := g.Get(cond, "medium", "bo")
	if !(ipla.Summary.Mean > pla.Summary.Mean*1.3) {
		t.Fatalf("ipla (%v) should clearly beat pla (%v) on homogeneous medium",
			ipla.Summary.Mean, pla.Summary.Mean)
	}
	if !(ipla.Summary.Mean > bo.Summary.Mean) {
		t.Fatalf("bo (%v) should not beat ipla (%v) on homogeneous medium",
			bo.Summary.Mean, ipla.Summary.Mean)
	}
}

// TestShapeSmallTopologiesTieUnderContention pins the right-column
// small-topology finding: with 25% contentious operators all strategies
// arrive at equally good configurations.
func TestShapeSmallTopologiesTieUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	g := GetGrid(shapeScale())
	cond := topo.Condition{ContentiousFraction: 0.25}
	var lo, hi float64
	for i, s := range g.Strategies() {
		o, ok := g.Get(cond, "small", s)
		if !ok {
			t.Fatalf("missing %s", s)
		}
		m := o.Summary.Mean
		if i == 0 {
			lo, hi = m, m
			continue
		}
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi > lo*1.25 {
		t.Fatalf("strategies should tie on small under contention: spread %v..%v", lo, hi)
	}
}

// TestShapeInformedConvergesFaster pins the Figure 5 finding: the
// linear informed strategy reaches its best configuration in far fewer
// steps than the Bayesian one on homogeneous medium topologies.
func TestShapeInformedConvergesFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	g := GetGrid(shapeScale())
	cond := topo.Condition{}
	ipla, _ := g.Get(cond, "medium", "ipla")
	bo, _ := g.Get(cond, "medium", "bo")
	if !(ipla.StepsToBest[0] < bo.StepsToBest[0]) {
		t.Fatalf("ipla (step %d) should converge before bo (step %d)",
			ipla.StepsToBest[0], bo.StepsToBest[0])
	}
}

// TestShapeDecisionTimeGrowsWithSize pins the Figure 7 finding: the
// Bayesian optimizer's per-step decision time grows with the number of
// parameters while the linear strategies stay at ~0.
func TestShapeDecisionTimeGrowsWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	g := GetGrid(shapeScale())
	cond := topo.Condition{}
	boSmall, _ := g.Get(cond, "small", "bo")
	boMedium, _ := g.Get(cond, "medium", "bo")
	pla, _ := g.Get(cond, "medium", "pla")
	if !(boMedium.MeanDecisionSec[0] > boSmall.MeanDecisionSec[0]) {
		t.Fatalf("bo decision time should grow with size: small %v vs medium %v",
			boSmall.MeanDecisionSec[0], boMedium.MeanDecisionSec[0])
	}
	if pla.MeanDecisionSec[0] > boSmall.MeanDecisionSec[0] {
		t.Fatalf("pla decision time (%v) should be negligible", pla.MeanDecisionSec[0])
	}
}

// TestShapeSundogBatchTuning pins the §V-D headline: searching batch
// size and batch parallelism beats parallelism-only tuning by a wide
// factor.
func TestShapeSundogBatchTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	sc := shapeScale()
	sc.Steps = 40
	d := GetSundog(sc)
	plaH := d.Outcomes["pla.h"].Summary.Mean
	boH := d.Outcomes["bo.h"].Summary.Mean
	cc := d.Outcomes["bo.bs-bp-cc"].Summary.Mean
	hbb := d.Outcomes["bo.h-bs-bp"].Summary.Mean
	best := cc
	if hbb > best {
		best = hbb
	}
	if !(best > plaH*1.5) {
		t.Fatalf("batch-parameter search (%v) should clearly beat pla hints-only (%v)", best, plaH)
	}
	// Hint-only strategies are comparable (paper: insignificant).
	if boH > plaH*1.6 || plaH > boH*1.6 {
		t.Fatalf("hint-only strategies should be comparable: pla %v vs bo %v", plaH, boH)
	}
}
