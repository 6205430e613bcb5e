// Package archive is the persistent memory of the tuner: a store of
// completed and in-progress tuning evidence — archived session states
// plus compact per-trial records — keyed by topology fingerprint and a
// small topology feature vector. A new session queries the archive for
// similar prior runs and warm-starts from their evidence instead of
// starting cold (see core's transfer layer).
//
// Two implementations share the Store interface: Mem (tests, fleets
// that only share within one process) and Disk (append-only JSON-lines
// segments on internal/journal, crash-safe: a torn final record is
// truncated on open, sealing a session fsyncs the segment, and GC
// compacts atomically).
//
// Everything here is decision-path code for warm-started sessions, so
// the package is bound by stormlint's norawrand/nowallclock/maporder
// contracts: no wall clock, no unseeded randomness, and every listing
// or ranking is deterministically ordered.
package archive

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"stormtune/internal/cluster"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// Features is the topology feature vector archive queries rank by:
// component counts, graph shape, the time-imbalance class, contention,
// and the cluster dimensions the session tuned against. Two runs with
// equal fingerprints always have equal features; the vector is what
// lets evidence transfer between *similar* — not identical —
// topologies.
type Features struct {
	// Nodes, Spouts and Edges are component counts.
	Nodes  int `json:"nodes"`
	Spouts int `json:"spouts"`
	Edges  int `json:"edges"`
	// Depth is the node count of the longest spout→sink path.
	Depth int `json:"depth"`
	// FanOut is the maximum out-degree of any node.
	FanOut int `json:"fanOut"`
	// TIIMClass quantizes the time-complexity imbalance across nodes
	// (coefficient of variation of TimeUnits): 0 balanced through 3
	// extreme.
	TIIMClass int `json:"tiimClass"`
	// Contention is the contentious share of total compute units.
	Contention float64 `json:"contention"`
	// Machines and Slots are the cluster dimensions (machine count and
	// task slots per machine).
	Machines int `json:"machines"`
	Slots    int `json:"slots"`
}

// Extract derives the feature vector of a topology on a cluster.
func Extract(t *topo.Topology, spec cluster.Spec) Features {
	f := Features{
		Nodes:      t.N(),
		Spouts:     len(t.Spouts()),
		Edges:      len(t.Edges),
		Contention: t.ContentiousShare(),
		Machines:   spec.Machines,
		Slots:      spec.TaskSlotsPerMachine,
	}
	// Depth in nodes: longest path where every node costs 1.
	depth := make([]int, t.N())
	for _, v := range t.TopoOrder() {
		d := 0
		for _, p := range t.Parents(v) {
			if depth[p] > d {
				d = depth[p]
			}
		}
		depth[v] = d + 1
		if depth[v] > f.Depth {
			f.Depth = depth[v]
		}
	}
	for v := 0; v < t.N(); v++ {
		if c := len(t.Children(v)); c > f.FanOut {
			f.FanOut = c
		}
	}
	f.TIIMClass = tiimClass(t)
	return f
}

// tiimClass buckets the coefficient of variation of per-node compute
// cost into four imbalance classes.
func tiimClass(t *topo.Topology) int {
	n := float64(t.N())
	mean := t.TotalTimeUnits() / n
	if mean <= 0 {
		return 0
	}
	var ss float64
	for _, nd := range t.Nodes {
		d := nd.TimeUnits - mean
		ss += d * d
	}
	cv := math.Sqrt(ss/n) / mean
	switch {
	case cv < 0.25:
		return 0
	case cv < 0.75:
		return 1
	case cv < 1.5:
		return 2
	default:
		return 3
	}
}

// Similarity scores two feature vectors in (0, 1]: 1 for identical
// features, decaying with a weighted normalized distance. Structural
// counts compare on relative scale (a 10-node and an 11-node chain are
// close; a 10-node and a 100-node one are not); the imbalance class
// and contention compare absolutely. Deterministic and symmetric.
func Similarity(a, b Features) float64 {
	rel := func(x, y, w float64) float64 {
		m := math.Max(math.Abs(x), math.Abs(y))
		if m == 0 {
			return 0
		}
		return w * math.Abs(x-y) / m
	}
	d := rel(float64(a.Nodes), float64(b.Nodes), 2) +
		rel(float64(a.Spouts), float64(b.Spouts), 1) +
		rel(float64(a.Edges), float64(b.Edges), 1) +
		rel(float64(a.Depth), float64(b.Depth), 1) +
		rel(float64(a.FanOut), float64(b.FanOut), 0.5) +
		0.5*math.Abs(float64(a.TIIMClass)-float64(b.TIIMClass))/3 +
		1.0*math.Abs(a.Contention-b.Contention) +
		rel(float64(a.Machines), float64(b.Machines), 1) +
		rel(float64(a.Slots), float64(b.Slots), 0.5)
	return math.Exp(-d)
}

// TrialRecord is one completed trial in compact archived form: enough
// to replay the configuration into a new session's parameter space and
// weight its observed objective.
type TrialRecord struct {
	// Step is the 1-based completion index within the session.
	Step   int          `json:"step"`
	Config storm.Config `json:"config"`
	// Y is the observed objective (throughput; 0 for failed trials).
	Y      float64 `json:"y"`
	Failed bool    `json:"failed,omitempty"`
}

// SessionMeta identifies one archived session.
type SessionMeta struct {
	// Key is the caller-stable identity of the run: re-attaching with
	// the same key (after a crash or snapshot/resume) continues the
	// same record instead of duplicating it.
	Key string `json:"key"`
	// Fingerprint is topo.Fingerprint of the tuned topology — the
	// primary archive key; exact matches outrank any feature distance.
	Fingerprint uint64 `json:"fingerprint"`
	// Topology is the human-readable topology name.
	Topology string `json:"topology"`
	// Strategy names the proposal strategy that produced the evidence.
	Strategy string `json:"strategy,omitempty"`
	// Set is the tuned parameter set (core.ParamSet numeric value).
	Set int `json:"set"`
	// Seed is the session's RNG seed.
	Seed int64 `json:"seed"`
	// Features is the topology feature vector used for similarity
	// ranking against non-identical fingerprints.
	Features Features `json:"features"`
}

// SessionRecord is one archived session: its identity, the compact
// per-trial evidence in completion order, and — once sealed — the full
// serialized session state.
type SessionRecord struct {
	Meta   SessionMeta   `json:"meta"`
	Trials []TrialRecord `json:"trials,omitempty"`
	// Sealed marks a completed session; unsealed records are abandoned
	// or still in progress.
	Sealed bool `json:"sealed,omitempty"`
	// State is the archived session state (a serialized
	// core.SessionState), present on sealed records when the sealer
	// provided one. Opaque to this package.
	State json.RawMessage `json:"state,omitempty"`
}

// Best returns the record's best successful trial, ok=false when every
// trial failed or none were archived.
func (r *SessionRecord) Best() (TrialRecord, bool) {
	var best TrialRecord
	found := false
	for _, tr := range r.Trials {
		if tr.Failed {
			continue
		}
		if !found || tr.Y > best.Y {
			best, found = tr, true
		}
	}
	return best, found
}

// TopK returns the record's k best successful trials, best first, with
// duplicate configurations collapsed (a session re-measuring its
// incumbent should contribute it once). Ties break on archive step so
// the ranking is deterministic.
func (r *SessionRecord) TopK(k int) []TrialRecord {
	ok := make([]TrialRecord, 0, len(r.Trials))
	for _, tr := range r.Trials {
		if !tr.Failed {
			ok = append(ok, tr)
		}
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].Y > ok[j].Y })
	out := make([]TrialRecord, 0, k)
	seen := make(map[uint64]bool)
	for _, tr := range ok {
		fp := tr.Config.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, tr)
		if len(out) == k {
			break
		}
	}
	return out
}

// Store is the archive contract both implementations satisfy. All
// methods are safe for concurrent use; listings are deterministically
// ordered by key.
type Store interface {
	// Begin registers a session. Re-beginning an existing key is the
	// re-attach path: the stored trials are kept and later Appends
	// continue the record. The metadata of a re-begun key must match
	// the stored record's fingerprint.
	Begin(meta SessionMeta) error
	// Append adds completed trials to an open or existing record.
	Append(key string, trials ...TrialRecord) error
	// Seal marks the session complete, optionally attaching the full
	// serialized session state, and makes the evidence durable.
	Seal(key string, state json.RawMessage) error
	// Get returns a deep-enough copy of one record.
	Get(key string) (SessionRecord, bool)
	// Keys lists all record keys in sorted order.
	Keys() []string
	// LastStep returns the highest archived trial step for key (0 when
	// none) — the resume cursor that prevents double-appending.
	LastStep(key string) int
	// Delete removes a record (gc support).
	Delete(key string) error
	// Close releases resources; the store is unusable afterwards.
	Close() error
}

// Ranked is one similarity-ranked query result.
type Ranked struct {
	Rec SessionRecord
	// Sim is the similarity in (0, 1]; exact fingerprint matches score
	// exactly 1.
	Sim float64
	// Exact marks an exact-fingerprint match.
	Exact bool
}

// Query returns the top-k archived sessions most relevant to a
// topology, best first: exact fingerprint matches rank before any
// feature-distance match, then by descending similarity, with key
// order as the final deterministic tiebreak. Records with no
// successful trial carry no transferable evidence and are skipped.
func Query(s Store, fp uint64, f Features, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	var out []Ranked
	for _, key := range s.Keys() {
		rec, ok := s.Get(key)
		if !ok {
			continue
		}
		if _, any := rec.Best(); !any {
			continue
		}
		r := Ranked{Rec: rec}
		if rec.Meta.Fingerprint == fp {
			r.Exact, r.Sim = true, 1
		} else {
			r.Sim = Similarity(f, rec.Meta.Features)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Exact != out[j].Exact {
			return out[i].Exact
		}
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Rec.Meta.Key < out[j].Rec.Meta.Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// validateMeta rejects metadata no store accepts.
func validateMeta(meta SessionMeta) error {
	if meta.Key == "" {
		return fmt.Errorf("archive: session key must be non-empty")
	}
	return nil
}
