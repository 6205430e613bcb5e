package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"stormtune/internal/archive"
	"stormtune/internal/cluster"
	"stormtune/internal/storm"
	"stormtune/internal/topo"
)

// WarmStartOptions configure transfer learning from an archive of past
// tuning runs. The zero value disables transfer entirely; enabling it
// never changes behavior when the archive holds no sufficiently
// similar donor (the negative-transfer guard).
type WarmStartOptions struct {
	// Enabled turns transfer on. Off by default.
	Enabled bool
	// TopK bounds how many archived donor sessions are consulted
	// (default 3).
	TopK int
	// Configs bounds how many warm-start configurations replace the
	// optimizer's Latin-hypercube budget (default: half the initial
	// design, at least one). The cap never exceeds the design size.
	Configs int
	// MinSimilarity is the negative-transfer guard: donors below this
	// similarity are ignored (default 0.35). Exact fingerprint matches
	// always qualify.
	MinSimilarity float64
	// Prior additionally fits an archived-runs prior on the GP mean
	// from the donors' z-scored observations, down-weighted by
	// similarity.
	Prior bool
	// PriorScale scales the prior's amplitude (default 1).
	PriorScale float64
}

func (ws WarmStartOptions) topK() int {
	if ws.TopK <= 0 {
		return 3
	}
	return ws.TopK
}

func (ws WarmStartOptions) minSimilarity() float64 {
	if ws.MinSimilarity <= 0 {
		return 0.35
	}
	return ws.MinSimilarity
}

func (ws WarmStartOptions) priorScale() float64 {
	if ws.PriorScale <= 0 {
		return 1
	}
	return ws.PriorScale
}

// transferPriorCap bounds how many historical observations feed the
// prior mean — enough to shape it. Each evaluation is a sum with one
// exp per observation, about as costly as one GP's posterior mean at
// paper-scale history, which is why internal/bo evaluates the prior
// once per point and shares the value across its hyper-sample
// ensemble.
const transferPriorCap = 64

// TransferSeed is the fully materialized result of an archive query
// against one strategy's parameter space: the unit-cube warm-start
// points and the prior-mean training set. It is serializable so a
// snapshot can reapply the exact same transfer on resume — replay
// cross-checks proposal fingerprints, so the resumed warm design must
// be bit-identical to the original.
type TransferSeed struct {
	// Donor is the best-ranked donor session's archive key.
	Donor string `json:"donor"`
	// DonorFingerprint is that donor's topology fingerprint.
	DonorFingerprint uint64 `json:"donorFingerprint"`
	// Similarity is the best donor's similarity (1 for exact matches).
	Similarity float64 `json:"similarity"`
	// Exact marks an exact-fingerprint donor.
	Exact bool `json:"exact,omitempty"`
	// Points are the warm-start unit-cube points, issue order.
	Points [][]float64 `json:"points,omitempty"`
	// PriorU/PriorZ/PriorW are the prior-mean training set: unit-cube
	// inputs, per-donor z-scored objectives, and similarity weights.
	PriorU [][]float64 `json:"priorU,omitempty"`
	PriorZ []float64   `json:"priorZ,omitempty"`
	PriorW []float64   `json:"priorW,omitempty"`
	// PriorScale is the amplitude applied to the fitted prior,
	// serialized so resume reconstructs the identical mean function.
	PriorScale float64 `json:"priorScale,omitempty"`
}

// SessionMetaFor assembles the archive identity of a tuning session.
func SessionMetaFor(key string, t *topo.Topology, spec cluster.Spec, strategy string, set ParamSet, seed int64) archive.SessionMeta {
	return archive.SessionMeta{
		Key:         key,
		Fingerprint: t.Fingerprint(),
		Topology:    t.Name,
		Strategy:    strategy,
		Set:         int(set),
		Seed:        seed,
		Features:    archive.Extract(t, spec),
	}
}

// encodeCompat maps an archived configuration into this strategy's
// unit cube, ok=false when the parameter spaces do not match (a donor
// tuned with per-node hints on a different node count cannot be
// projected). Values outside the local bounds clamp at the cube edge.
func (s *BOStrategy) encodeCompat(cfg storm.Config) ([]float64, bool) {
	switch s.set {
	case Hints, HintsBatch, InformedHints:
		if len(cfg.Hints) != s.topology.N() {
			return nil, false
		}
	}
	return s.Encode(cfg), true
}

// ComputeTransfer queries the archive for donors relevant to the
// strategy's topology and materializes a TransferSeed: prior
// incumbents and top-k configurations mapped through matching
// parameter spaces become warm-start points, and (optionally) the
// donors' z-scored trial histories become a similarity-down-weighted
// prior on the GP mean. Donors tuned over a different ParamSet are
// skipped — their evidence lives in a different space. Returns nil
// when transfer is disabled or no donor clears the guard; the caller
// then proceeds exactly as a cold run. Deterministic for a fixed
// archive snapshot. meta carries the querying session's own identity
// (fingerprint, features, key) — its record is never its own donor.
func ComputeTransfer(s *BOStrategy, store archive.Store, meta archive.SessionMeta, ws WarmStartOptions) *TransferSeed {
	if !ws.Enabled || store == nil || s == nil {
		return nil
	}
	// Query extra slots so filtering out the session's own key (resume
	// re-attach) and mismatched parameter sets cannot starve the pool.
	ranked := archive.Query(store, meta.Fingerprint, meta.Features, ws.topK()+4)
	minSim := ws.minSimilarity()
	var donors []archive.Ranked
	for _, r := range ranked {
		if r.Rec.Meta.Key == meta.Key {
			continue // never transfer from this session's own record
		}
		if int(s.set) != r.Rec.Meta.Set {
			continue
		}
		if !r.Exact && r.Sim < minSim {
			continue
		}
		donors = append(donors, r)
		if len(donors) == ws.topK() {
			break
		}
	}
	if len(donors) == 0 {
		return nil
	}

	seed := &TransferSeed{
		Donor:            donors[0].Rec.Meta.Key,
		DonorFingerprint: donors[0].Rec.Meta.Fingerprint,
		Similarity:       donors[0].Sim,
		Exact:            donors[0].Exact,
		PriorScale:       ws.priorScale(),
	}

	maxPts := ws.Configs
	if maxPts <= 0 {
		maxPts = (s.opt.Opts.InitialDesign + 1) / 2
	}
	if maxPts > s.opt.Opts.InitialDesign {
		maxPts = s.opt.Opts.InitialDesign
	}
	if maxPts < 1 {
		maxPts = 1
	}
	// Warm points: donors in rank order, each contributing its best
	// configurations first, dedup across donors.
	for _, d := range donors {
		for _, tr := range d.Rec.TopK(maxPts) {
			u, ok := s.encodeCompat(tr.Config)
			if !ok {
				break // same ParamSet but incompatible shape: whole donor out
			}
			if containsVec(seed.Points, u) {
				continue
			}
			seed.Points = append(seed.Points, u)
			if len(seed.Points) == maxPts {
				break
			}
		}
		if len(seed.Points) == maxPts {
			break
		}
	}

	if ws.Prior {
		perDonor := transferPriorCap / len(donors)
		if perDonor < 1 {
			perDonor = 1
		}
		for _, d := range donors {
			zs, ok := zscores(d.Rec.Trials)
			if !ok {
				continue
			}
			taken := 0
			for i, tr := range d.Rec.Trials {
				u, enc := s.encodeCompat(tr.Config)
				if !enc {
					break
				}
				seed.PriorU = append(seed.PriorU, u)
				seed.PriorZ = append(seed.PriorZ, zs[i])
				seed.PriorW = append(seed.PriorW, d.Sim)
				taken++
				if taken == perDonor {
					break
				}
			}
		}
	}

	if len(seed.Points) == 0 && len(seed.PriorU) == 0 {
		return nil
	}
	return seed
}

// ApplyTransfer installs a transfer seed into the strategy's optimizer:
// warm-start points replace part of the Latin-hypercube budget, and the
// prior training set becomes a kernel-regression prior on the GP mean.
// Must run before the first suggestion; applying the same seed to a
// freshly built strategy reproduces the identical run (resume path).
// A nil seed is a no-op.
func (s *BOStrategy) ApplyTransfer(seed *TransferSeed) {
	if seed == nil {
		return
	}
	if len(seed.Points) > 0 {
		pts := make([][]float64, len(seed.Points))
		for i, p := range seed.Points {
			pts[i] = append([]float64(nil), p...)
		}
		s.opt.Opts.WarmStarts = pts
	}
	if len(seed.PriorU) > 0 {
		s.opt.Opts.PriorMean = transferPrior(seed.PriorU, seed.PriorZ, seed.PriorW, seed.PriorScale)
	}
}

// SetSharedSeeds pushes cross-session candidate configurations (fleet
// siblings' incumbents) into the optimizer: fresh ones take over the
// remaining initial-design slots and all of them join every model
// pass's candidate pool. Configurations the space cannot represent are
// dropped. Callers must hold the owning session's lock (use
// Session.UpdateStrategy).
func (s *BOStrategy) SetSharedSeeds(cfgs []storm.Config) {
	var us [][]float64
	for _, cfg := range cfgs {
		if u, ok := s.encodeCompat(cfg); ok {
			us = append(us, u)
		}
	}
	s.opt.SetSharedSeeds(us)
}

// transferPrior builds the archived-runs prior mean: Nadaraya-Watson
// kernel regression over the donors' z-scored observations, weighted
// by donor similarity and shrunk toward zero (the local surrogate's
// standardized mean) where the history is sparse — far from all donor
// evidence the prior vanishes and the run behaves cold.
func transferPrior(us [][]float64, zs, ws []float64, scale float64) func([]float64) float64 {
	const ell = 0.25   // kernel length scale in the unit cube
	const shrink = 1.0 // pseudo-weight pulling toward 0
	const clampZ = 2.0 // archived evidence never dominates local data
	if scale <= 0 {
		scale = 1
	}
	return func(u []float64) float64 {
		var num, den float64
		for i, ui := range us {
			d2 := 0.0
			for j := range u {
				dd := u[j] - ui[j]
				d2 += dd * dd
			}
			k := ws[i] * math.Exp(-d2/(2*ell*ell))
			num += k * zs[i]
			den += k
		}
		v := scale * num / (den + shrink)
		if v > clampZ {
			v = clampZ
		}
		if v < -clampZ {
			v = -clampZ
		}
		return v
	}
}

// zscores standardizes a donor's trial objectives within the donor
// (failed trials keep their zero objective — a cheap "avoid here"
// signal). ok is false when the history is empty or constant.
func zscores(trials []archive.TrialRecord) ([]float64, bool) {
	if len(trials) == 0 {
		return nil, false
	}
	mean := 0.0
	for _, tr := range trials {
		mean += tr.Y
	}
	mean /= float64(len(trials))
	variance := 0.0
	for _, tr := range trials {
		d := tr.Y - mean
		variance += d * d
	}
	variance /= float64(len(trials))
	if variance <= 0 {
		return nil, false
	}
	sd := math.Sqrt(variance)
	zs := make([]float64, len(trials))
	for i, tr := range trials {
		zs[i] = (tr.Y - mean) / sd
	}
	return zs, true
}

func containsVec(set [][]float64, u []float64) bool {
	for _, v := range set {
		if len(v) != len(u) {
			continue
		}
		same := true
		for i := range v {
			if v[i] != u[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// ArchiveRecorder is the session observer that appends completed
// trials to an archive store as they happen. OnEvent runs on the
// session's serialized observer dispatch — outside the session lock,
// off the propose/report hot path — so the store write never blocks a
// proposal (the emitnolock contract). On resume it skips steps the
// archive already holds, preventing double-appends when the archive is
// ahead of the snapshot.
type ArchiveRecorder struct {
	store archive.Store
	key   string

	mu sync.Mutex
	// seen holds every archived step — membership, not a high-water
	// mark, because concurrent trials complete out of order (trial 3
	// may report before trial 2) and a monotone cursor would silently
	// drop the laggard.
	seen   map[int]bool
	sealed bool
	err    error
}

// NewArchiveRecorder registers (or re-attaches) the session in the
// store and returns the observer. Steps the store already holds for
// the key are marked seen, so a resumed session double-appends
// nothing.
func NewArchiveRecorder(store archive.Store, meta archive.SessionMeta) (*ArchiveRecorder, error) {
	if err := store.Begin(meta); err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	if rec, ok := store.Get(meta.Key); ok {
		for _, tr := range rec.Trials {
			seen[tr.Step] = true
		}
	}
	return &ArchiveRecorder{store: store, key: meta.Key, seen: seen}, nil
}

// Key returns the archive key the recorder appends under.
func (a *ArchiveRecorder) Key() string { return a.key }

// OnEvent implements Observer.
func (a *ArchiveRecorder) OnEvent(e Event) {
	tc, ok := e.(TrialCompleted)
	if !ok {
		return
	}
	y := tc.Result.Throughput
	if tc.Result.Failed {
		y = 0
	}
	a.append(archive.TrialRecord{Step: tc.Trial.ID, Config: tc.Trial.Config, Y: y, Failed: tc.Result.Failed})
}

func (a *ArchiveRecorder) append(tr archive.TrialRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sealed || a.seen[tr.Step] {
		return
	}
	if err := a.store.Append(a.key, tr); err != nil && a.err == nil {
		a.err = err
		return
	}
	a.seen[tr.Step] = true
}

// Backfill archives completed records a resumed session replayed
// internally (replay does not emit TrialCompleted): only steps the
// archive does not already hold are appended, so a snapshot behind
// the archive double-appends nothing.
func (a *ArchiveRecorder) Backfill(records []RunRecord) {
	for _, r := range records {
		y := r.Result.Throughput
		if r.Result.Failed {
			y = 0
		}
		a.append(archive.TrialRecord{Step: r.Step, Config: r.Config, Y: y, Failed: r.Result.Failed})
	}
}

// Seal marks the archived session complete, attaching the final
// session state (nil is allowed) and making the evidence durable.
func (a *ArchiveRecorder) Seal(state *SessionState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sealed {
		return nil
	}
	var raw json.RawMessage
	if state != nil {
		b, err := json.Marshal(state)
		if err != nil {
			return fmt.Errorf("core: marshal session state for seal: %w", err)
		}
		raw = b
	}
	if err := a.store.Seal(a.key, raw); err != nil {
		return err
	}
	a.sealed = true
	return nil
}

// Err returns the first append error, if any — appends happen on the
// observer path where errors cannot propagate.
func (a *ArchiveRecorder) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}
