// Package storm simulates a Storm/Trident deployment well enough to
// serve as the black-box objective function the paper optimizes: given
// a topology, a cluster and a configuration (Table I), it returns the
// sustained throughput a two-minute measurement run would observe,
// including measurement noise.
//
// Two evaluators implement the same contract. FluidSim solves for the
// steady-state maximum rate analytically (fast; used inside
// optimization loops, where the paper burned two minutes of cluster
// time per sample). BatchDES replays the Trident batch pipeline as a
// discrete-event simulation (used for validation and examples). Both
// model the mechanisms the paper identifies as shaping performance:
// per-tuple busy-wait cost, resource contention that scales service
// time with the instance count, scheduler capacity, batch pipelining,
// acker bookkeeping, receiver threads and the worker thread pool.
package storm

import (
	"fmt"
	"hash/fnv"
	"math"

	"stormtune/internal/topo"
)

// Config carries the Table I parameters.
type Config struct {
	// Hints holds the parallelism hint for each topology node, in node
	// index order. Values are pre-normalization ("Storm may change
	// these hints for consistency purposes").
	Hints []int
	// MaxTasks caps the total task-instance count; hints are scaled
	// down proportionally when their sum exceeds it (§V-A: "we
	// normalized the chosen hints using the max-task parameter").
	// Zero means no cap.
	MaxTasks int
	// BatchSize is the number of source tuples per Trident mini-batch.
	BatchSize int
	// BatchParallelism is the number of batches processed in parallel
	// (pipeline parallelism).
	BatchParallelism int
	// WorkerThreads is the per-worker thread-pool size.
	WorkerThreads int
	// ReceiverThreads is the number of message-receiver threads per
	// worker.
	ReceiverThreads int
	// Ackers is the total number of acker tasks; 0 selects Storm's
	// default of one per worker host.
	Ackers int
}

// DefaultConfig mirrors the manually tuned deployment of §V-D: batch
// size 50 000, batch parallelism 5, a worker thread pool of 8 on 4-core
// hosts, one receiver thread, and one acker per worker.
func DefaultConfig(t *topo.Topology, hint int) Config {
	hints := make([]int, t.N())
	for i := range hints {
		hints[i] = hint
	}
	return Config{
		Hints:            hints,
		BatchSize:        50000,
		BatchParallelism: 5,
		WorkerThreads:    8,
		ReceiverThreads:  1,
		Ackers:           0,
	}
}

// DefaultSyntheticConfig is the fixed batching configuration used for
// the synthetic parallelism experiments (§V-A tunes hints only): small
// mini-batches keep the pipeline bound from dominating the CPU
// behaviour under 20 ms tuples.
func DefaultSyntheticConfig(t *topo.Topology, hint int) Config {
	c := DefaultConfig(t, hint)
	c.BatchSize = 50
	c.BatchParallelism = 32
	return c
}

// Validate checks the config against a topology of nodes operators.
func (c Config) Validate(nodes int) error {
	if len(c.Hints) != nodes {
		return fmt.Errorf("storm: %d hints for %d nodes", len(c.Hints), nodes)
	}
	for i, h := range c.Hints {
		if h < 1 {
			return fmt.Errorf("storm: hint[%d]=%d must be ≥1", i, h)
		}
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("storm: batch size %d must be ≥1", c.BatchSize)
	}
	if c.BatchParallelism < 1 {
		return fmt.Errorf("storm: batch parallelism %d must be ≥1", c.BatchParallelism)
	}
	if c.WorkerThreads < 1 {
		return fmt.Errorf("storm: worker threads %d must be ≥1", c.WorkerThreads)
	}
	if c.ReceiverThreads < 1 {
		return fmt.Errorf("storm: receiver threads %d must be ≥1", c.ReceiverThreads)
	}
	if c.Ackers < 0 {
		return fmt.Errorf("storm: ackers %d must be ≥0", c.Ackers)
	}
	if c.MaxTasks < 0 {
		return fmt.Errorf("storm: max tasks %d must be ≥0", c.MaxTasks)
	}
	return nil
}

// NormalizedHints applies the max-tasks normalization: when the hint
// sum exceeds MaxTasks, hints are scaled proportionally, flooring at 1
// instance per node.
func (c Config) NormalizedHints() []int {
	out := make([]int, len(c.Hints))
	copy(out, c.Hints)
	if c.MaxTasks <= 0 {
		return out
	}
	sum := 0
	for _, h := range out {
		sum += h
	}
	if sum <= c.MaxTasks {
		return out
	}
	scale := float64(c.MaxTasks) / float64(sum)
	for i, h := range out {
		v := int(math.Floor(float64(h) * scale))
		if v < 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// TotalTasks returns the post-normalization instance count.
func (c Config) TotalTasks() int {
	s := 0
	for _, h := range c.NormalizedHints() {
		s += h
	}
	return s
}

// Clone deep-copies the config.
func (c Config) Clone() Config {
	out := c
	out.Hints = append([]int(nil), c.Hints...)
	return out
}

// Fingerprint hashes the configuration; the noise model uses it so that
// repeated runs of the same configuration see run-to-run variation
// while distinct configurations get independent draws.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v int) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, hint := range c.Hints {
		wr(hint)
	}
	wr(c.MaxTasks)
	wr(c.BatchSize)
	wr(c.BatchParallelism)
	wr(c.WorkerThreads)
	wr(c.ReceiverThreads)
	wr(c.Ackers)
	return h.Sum64()
}
