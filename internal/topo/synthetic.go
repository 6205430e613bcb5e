package topo

import (
	"fmt"
	"math/rand"

	"stormtune/internal/ggen"
)

// SyntheticOptions control how a GGen DAG becomes a Storm topology and
// which of the paper's modifications are applied (§IV-B).
type SyntheticOptions struct {
	// BaseTimeUnits is the target compute cost per tuple; the paper
	// sets 20 units (≈20 ms).
	BaseTimeUnits float64
	// TimeImbalance selects between homogeneous cost (0) and the fully
	// imbalanced variant (1) where costs are uniform in
	// [0, 2×BaseTimeUnits], preserving the mean (§IV-B1). Intermediate
	// values interpolate the spread.
	TimeImbalance float64
	// ContentiousFraction is the share of total compute units flagged
	// as resource-contentious (§IV-B2); the paper uses 0 or 0.25.
	ContentiousFraction float64
	// TupleBytes sets the per-tuple wire size (Figure 3 accounting);
	// default 4096.
	TupleBytes int
	// Seed drives the random modifications.
	Seed int64
}

// DefaultSynthetic returns the paper's base configuration: 20 compute
// units per tuple, no imbalance, no contention.
func DefaultSynthetic() SyntheticOptions {
	return SyntheticOptions{BaseTimeUnits: 20, TupleBytes: 4096, Seed: 1}
}

// FromDAG converts a generated DAG into a topology: sources become
// spouts, everything else bolts, every edge uses shuffle grouping
// (§IV-B4), and the modification passes are applied.
func FromDAG(name string, d *ggen.DAG, opts SyntheticOptions) *Topology {
	if opts.BaseTimeUnits <= 0 {
		opts.BaseTimeUnits = 20
	}
	if opts.TupleBytes <= 0 {
		opts.TupleBytes = 4096
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	isSource := make([]bool, d.V)
	for _, s := range d.Sources() {
		isSource[s] = true
	}
	nodes := make([]Node, d.V)
	for v := 0; v < d.V; v++ {
		kind := Bolt
		prefix := "bolt"
		if isSource[v] {
			kind = Spout
			prefix = "spout"
		}
		nodes[v] = Node{
			Name:        fmt.Sprintf("%s-%d", prefix, v),
			Kind:        kind,
			TimeUnits:   opts.BaseTimeUnits,
			Selectivity: 1,
			TupleBytes:  opts.TupleBytes,
		}
	}
	var edges []Edge
	for u := 0; u < d.V; u++ {
		for _, v := range d.Adj[u] {
			edges = append(edges, Edge{From: u, To: v, Grouping: Shuffle})
		}
	}
	t := MustNew(name, nodes, edges)
	if opts.TimeImbalance > 0 {
		ApplyTimeImbalance(t, rng, opts.BaseTimeUnits, opts.TimeImbalance)
	}
	if opts.ContentiousFraction > 0 {
		ApplyContention(t, rng, opts.ContentiousFraction)
	}
	return t
}

// ApplyTimeImbalance redraws per-node compute cost from a uniform
// distribution with the given mean, spread scaled by imbalance ∈ [0,1]:
// imbalance 1 gives U(0, 2·mean) as in the paper ("a uniform
// distribution of compute length with a mean of 20 compute units
// (between 0 and 40)").
func ApplyTimeImbalance(t *Topology, rng *rand.Rand, mean, imbalance float64) {
	if imbalance < 0 {
		imbalance = 0
	}
	if imbalance > 1 {
		imbalance = 1
	}
	for i := range t.Nodes {
		// U(mean-(spread), mean+(spread)) with spread = imbalance×mean.
		u := 2*rng.Float64() - 1 // [-1, 1)
		t.Nodes[i].TimeUnits = mean + u*imbalance*mean
		if t.Nodes[i].TimeUnits < 0.1 {
			t.Nodes[i].TimeUnits = 0.1
		}
	}
}

// ApplyContention flags nodes as resource-contentious until the flagged
// share of total compute units reaches fraction. Per §IV-B2 the
// selection is based on compute mass rather than node count: "we select
// nodes with a total time complexity of [fraction × total] units ...
// and flag them". Nodes are drawn in random order; the pass stops at
// the node whose inclusion gets closest to the target without wildly
// overshooting.
func ApplyContention(t *Topology, rng *rand.Rand, fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction > 1 {
		fraction = 1
	}
	target := fraction * t.TotalTimeUnits()
	order := rng.Perm(len(t.Nodes))
	// Spouts are never contentious — contention models shared backend
	// resources bolts call into.
	var bolts []int
	for _, i := range order {
		if t.Nodes[i].Kind == Bolt {
			bolts = append(bolts, i)
		}
	}
	acc := 0.0
	for _, i := range bolts {
		if acc >= target {
			break
		}
		cost := t.Nodes[i].TimeUnits
		// Skip a node that would overshoot badly unless nothing else
		// can fill the gap.
		if acc+cost > target && (target-acc) < cost/2 {
			continue
		}
		t.Nodes[i].Contentious = true
		acc += cost
	}
	// If rounding left us short with nothing flagged, flag the closest
	// single bolt so the condition is at least represented.
	if acc == 0 && len(bolts) > 0 {
		best := bolts[0]
		for _, i := range bolts {
			if diff(t.Nodes[i].TimeUnits, target) < diff(t.Nodes[best].TimeUnits, target) {
				best = i
			}
		}
		t.Nodes[best].Contentious = true
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Condition identifies one cell of the paper's 2×2 synthetic experiment
// grid (Figure 4): time-complexity imbalance × contentious share.
type Condition struct {
	TimeImbalance       float64
	ContentiousFraction float64
}

// Label renders a condition the way the paper's figures caption it.
func (c Condition) Label() string {
	ti := "0% TiIm"
	if c.TimeImbalance > 0 {
		ti = "100% TiIm"
	}
	co := "0% Contentious"
	if c.ContentiousFraction > 0 {
		co = "25% Contentious"
	}
	return ti + " / " + co
}

// Conditions returns the four cells of Figure 4 in reading order.
func Conditions() []Condition {
	return []Condition{
		{0, 0},
		{0, 0.25},
		{1, 0},
		{1, 0.25},
	}
}

// Sizes returns the topology size names in increasing order.
func Sizes() []string { return []string{"small", "medium", "large"} }

// BuildSynthetic generates the named Table II topology and applies a
// condition, using deterministic seeds so experiments are reproducible.
func BuildSynthetic(size string, cond Condition, seed int64) *Topology {
	d := ggen.GenerateMatching(size, 500)
	opts := DefaultSynthetic()
	opts.TimeImbalance = cond.TimeImbalance
	opts.ContentiousFraction = cond.ContentiousFraction
	opts.Seed = seed
	name := fmt.Sprintf("%s[TiIm=%.0f%%,Cont=%.0f%%]", size, cond.TimeImbalance*100, cond.ContentiousFraction*100)
	return FromDAG(name, d, opts)
}
