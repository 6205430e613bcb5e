package bo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// State is the serializable snapshot of an optimization run. Spearmint's
// support for pausing and resuming "turned out to be important" in the
// paper's cluster setup (§III-C); this provides the same capability.
type State struct {
	Version      int           `json:"version"`
	Space        *Space        `json:"space"`
	Observations []Observation `json:"observations"`
	Seed         int64         `json:"seed"`
	// Pending holds suggested-but-unobserved points (in-flight trials at
	// snapshot time); Resume re-registers them as constant-liar
	// fantasies so a resumed batch keeps spreading out.
	Pending [][]float64 `json:"pending,omitempty"`
}

const stateVersion = 1

// Snapshot captures the optimizer's observations, pending suggestions
// and search space.
func (opt *Optimizer) Snapshot() *State {
	var pending [][]float64
	for _, p := range opt.pending {
		pending = append(pending, append([]float64(nil), p...))
	}
	return &State{
		Version:      stateVersion,
		Space:        opt.Space,
		Observations: opt.Observations(),
		Seed:         opt.Opts.Seed,
		Pending:      pending,
	}
}

// Save writes the snapshot as JSON.
func (s *State) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// LoadState reads a snapshot from r.
func LoadState(r io.Reader) (*State, error) {
	var s State
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("bo: decoding state: %w", err)
	}
	if s.Version != stateVersion {
		return nil, fmt.Errorf("bo: unsupported state version %d", s.Version)
	}
	if s.Space == nil || len(s.Space.Dims) == 0 {
		return nil, fmt.Errorf("bo: state has no search space")
	}
	for i, o := range s.Observations {
		if len(o.U) != len(s.Space.Dims) {
			return nil, fmt.Errorf("bo: observation %d has dim %d, space has %d", i, len(o.U), len(s.Space.Dims))
		}
	}
	for i, p := range s.Pending {
		if len(p) != len(s.Space.Dims) {
			return nil, fmt.Errorf("bo: pending point %d has dim %d, space has %d", i, len(p), len(s.Space.Dims))
		}
	}
	return &s, nil
}

// LoadStateFile reads a snapshot from a file.
func LoadStateFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadState(f)
}

// Resume reconstructs an optimizer from a snapshot, replaying its
// observations and re-registering pending suggestions as constant-liar
// fantasies. opts may refine behaviour; its Seed is overridden by the
// snapshot's seed advanced past the replayed history so the resumed
// process does not repeat the same random draws. (For bit-exact resume
// of a whole tuning run — RNG position included — use the session-level
// snapshot, core.SessionState / stormtune.TunerState, which replays the
// full ask/tell log instead.)
func Resume(s *State, opts Options) *Optimizer {
	opts.Seed = s.Seed + int64(len(s.Observations)) + 1
	opt := NewOptimizer(s.Space, opts)
	for _, o := range s.Observations {
		opt.Observe(o.U, o.Y)
	}
	for _, p := range s.Pending {
		opt.pending = append(opt.pending, append([]float64(nil), p...))
	}
	return opt
}
