// Package topo models Storm/Trident topologies: directed acyclic
// operator graphs of spouts and bolts with per-node time complexity
// (compute units per tuple, 1 unit ≈ 1 ms of busy-wait as in §IV-B1),
// resource-contention flags (§IV-B2), selectivity, and grouping
// strategies on edges. It also provides the synthetic modification
// passes, the recursive base-parallelism weights used by the informed
// optimizers, and the Sundog real-world topology of Figure 2.
package topo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Kind distinguishes spouts (sources) from bolts.
type Kind int

// Node kinds.
const (
	Spout Kind = iota
	Bolt
)

// String names the kind.
func (k Kind) String() string {
	if k == Spout {
		return "spout"
	}
	return "bolt"
}

// Grouping is the strategy by which tuples on an edge are routed to
// downstream task instances.
type Grouping int

// Grouping strategies (the synthetic topologies use shuffle only,
// §IV-B4; Sundog mixes shuffle and fields grouping).
const (
	Shuffle Grouping = iota
	Fields
	Global
)

// String names the grouping.
func (g Grouping) String() string {
	switch g {
	case Shuffle:
		return "shuffle"
	case Fields:
		return "fields"
	default:
		return "global"
	}
}

// Node is one operator of the topology.
type Node struct {
	Name string
	Kind Kind
	// TimeUnits is the compute cost per tuple in compute-resource units
	// (1 unit ≈ 1 ms, §IV-B1). For spouts this is the per-tuple emit cost.
	TimeUnits float64
	// Contentious marks the node as bound by a globally contended
	// resource: its effective service time is multiplied by its total
	// task-instance count (§IV-B2).
	Contentious bool
	// Selectivity is the number of tuples emitted per input tuple on
	// each outgoing edge (§IV-B3). Spouts ignore it.
	Selectivity float64
	// TupleBytes is the serialized size of one emitted tuple, used for
	// the network-load accounting of Figure 3.
	TupleBytes int
	// RateFactor scales a spout's emission rate relative to the
	// topology's base rate λ (default 1). Slow auxiliary sources — like
	// Sundog's semi-static feature table — use factors ≪ 1. Bolts
	// ignore it.
	RateFactor float64
}

// Edge connects two nodes.
type Edge struct {
	From, To int
	Grouping Grouping
}

// Topology is an operator DAG.
type Topology struct {
	Name  string
	Nodes []Node
	Edges []Edge

	adj [][]int // computed lazily by buildIndex
	in  [][]int
}

// New constructs a topology and validates it (see Validate).
func New(name string, nodes []Node, edges []Edge) (*Topology, error) {
	t := &Topology{Name: name, Nodes: nodes, Edges: edges}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.buildIndex()
	return t, nil
}

// MustNew is New that panics on error, for statically known topologies.
func MustNew(name string, nodes []Node, edges []Edge) *Topology {
	t, err := New(name, nodes, edges)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Topology) buildIndex() {
	n := len(t.Nodes)
	t.adj = make([][]int, n)
	t.in = make([][]int, n)
	for _, e := range t.Edges {
		t.adj[e.From] = append(t.adj[e.From], e.To)
		t.in[e.To] = append(t.in[e.To], e.From)
	}
	for v := 0; v < n; v++ {
		sort.Ints(t.adj[v])
		sort.Ints(t.in[v])
	}
}

// Validate checks structural invariants: edge endpoints in range, no
// self loops, acyclicity, spouts have no in-edges, every node reachable
// from some spout or a spout itself, at least one spout and one sink,
// positive time units, non-negative selectivity.
func (t *Topology) Validate() error {
	n := len(t.Nodes)
	if n == 0 {
		return fmt.Errorf("topo %s: no nodes", t.Name)
	}
	in := make([]int, n)
	adj := make([][]int, n)
	for i, e := range t.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("topo %s: edge %d endpoints (%d,%d) out of range", t.Name, i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("topo %s: self loop at node %d", t.Name, e.From)
		}
		adj[e.From] = append(adj[e.From], e.To)
		in[e.To]++
	}
	spouts := 0
	for i, nd := range t.Nodes {
		if nd.Kind == Spout {
			spouts++
			if in[i] != 0 {
				return fmt.Errorf("topo %s: spout %s has incoming edges", t.Name, nd.Name)
			}
		} else if in[i] == 0 {
			return fmt.Errorf("topo %s: bolt %s has no incoming edges", t.Name, nd.Name)
		}
		if nd.TimeUnits < 0 {
			return fmt.Errorf("topo %s: node %s has negative time units", t.Name, nd.Name)
		}
		if nd.Selectivity < 0 {
			return fmt.Errorf("topo %s: node %s has negative selectivity", t.Name, nd.Name)
		}
	}
	if spouts == 0 {
		return fmt.Errorf("topo %s: no spouts", t.Name)
	}
	// Cycle check via Kahn's algorithm.
	deg := append([]int(nil), in...)
	var queue []int
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	visited := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		visited++
		for _, w := range adj[v] {
			deg[w]--
			if deg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if visited != n {
		return fmt.Errorf("topo %s: graph has a cycle", t.Name)
	}
	return nil
}

// N returns the node count.
func (t *Topology) N() int { return len(t.Nodes) }

// Fingerprint hashes the topology's full structure — name, every node
// parameter, every edge. Two topologies with the same name and node
// count but different generation parameters (seed, imbalance,
// contention) hash differently, which is what lets a remote evaluation
// client verify the worker serves the exact topology it is tuning.
func (t *Topology) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { wi(math.Float64bits(v)) }
	h.Write([]byte(t.Name))
	for _, n := range t.Nodes {
		h.Write([]byte{0})
		h.Write([]byte(n.Name))
		wi(uint64(n.Kind))
		wf(n.TimeUnits)
		if n.Contentious {
			wi(1)
		} else {
			wi(0)
		}
		wf(n.Selectivity)
		wi(uint64(n.TupleBytes))
		wf(n.RateFactor)
	}
	for _, e := range t.Edges {
		wi(uint64(e.From))
		wi(uint64(e.To))
		wi(uint64(e.Grouping))
	}
	return h.Sum64()
}

// Children returns the downstream neighbours of v.
func (t *Topology) Children(v int) []int { return t.adj[v] }

// Parents returns the upstream neighbours of v.
func (t *Topology) Parents(v int) []int { return t.in[v] }

// Spouts returns the indices of all spout nodes.
func (t *Topology) Spouts() []int {
	var out []int
	for i, n := range t.Nodes {
		if n.Kind == Spout {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns the indices of nodes with no outgoing edges.
func (t *Topology) Sinks() []int {
	var out []int
	for i := range t.Nodes {
		if len(t.adj[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TopoOrder returns a topological order of the nodes.
func (t *Topology) TopoOrder() []int {
	n := len(t.Nodes)
	deg := make([]int, n)
	for _, e := range t.Edges {
		deg[e.To]++
	}
	var queue, order []int
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range t.adj[v] {
			deg[w]--
			if deg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order
}

// Rates returns, for a unit aggregate emission rate at every spout, the
// tuple arrival rate at each node. Storm semantics: every outgoing edge
// carries the node's full output stream (selectivity applied per edge).
func (t *Topology) Rates() []float64 {
	rate := make([]float64, len(t.Nodes))
	for _, s := range t.Spouts() {
		rf := t.Nodes[s].RateFactor
		if rf == 0 {
			rf = 1
		}
		rate[s] = rf
	}
	for _, v := range t.TopoOrder() {
		var out float64
		if t.Nodes[v].Kind == Spout {
			out = rate[v]
		} else {
			sel := t.Nodes[v].Selectivity
			if sel == 0 {
				sel = 1
			}
			out = rate[v] * sel
		}
		for _, w := range t.adj[v] {
			rate[w] += out
		}
	}
	return rate
}

// BaseWeights computes the recursive "base parallelism weight" of §V-A:
// spouts have weight 1; a bolt's weight is the sum of its parents'
// weights. These are the weights the informed optimizers (ipla, ibo)
// multiply.
func (t *Topology) BaseWeights() []float64 {
	w := make([]float64, len(t.Nodes))
	for _, v := range t.TopoOrder() {
		if t.Nodes[v].Kind == Spout {
			w[v] = 1
			continue
		}
		s := 0.0
		for _, p := range t.in[v] {
			s += w[p]
		}
		w[v] = s
	}
	return w
}

// TotalTimeUnits sums time complexity over all nodes (used when
// selecting contentious nodes by compute mass, §IV-B2).
func (t *Topology) TotalTimeUnits() float64 {
	s := 0.0
	for _, n := range t.Nodes {
		s += n.TimeUnits
	}
	return s
}

// ContentiousShare returns the fraction of total compute units that is
// flagged contentious.
func (t *Topology) ContentiousShare() float64 {
	total := t.TotalTimeUnits()
	if total == 0 {
		return 0
	}
	c := 0.0
	for _, n := range t.Nodes {
		if n.Contentious {
			c += n.TimeUnits
		}
	}
	return c / total
}

// Clone deep-copies the topology.
func (t *Topology) Clone() *Topology {
	nodes := append([]Node(nil), t.Nodes...)
	edges := append([]Edge(nil), t.Edges...)
	c := &Topology{Name: t.Name, Nodes: nodes, Edges: edges}
	c.buildIndex()
	return c
}

// CriticalPathUnits returns the largest sum of TimeUnits along any
// spout→sink path; the batch-latency model uses it.
func (t *Topology) CriticalPathUnits() float64 {
	best := make([]float64, len(t.Nodes))
	maxAll := 0.0
	for _, v := range t.TopoOrder() {
		b := 0.0
		for _, p := range t.in[v] {
			if best[p] > b {
				b = best[p]
			}
		}
		best[v] = b + t.Nodes[v].TimeUnits
		if best[v] > maxAll {
			maxAll = best[v]
		}
	}
	return maxAll
}
