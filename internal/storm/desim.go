package storm

import (
	"math"

	"stormtune/internal/cluster"
	"stormtune/internal/des"
	"stormtune/internal/topo"
)

// BatchDES replays the Trident mini-batch pipeline as a discrete-event
// simulation: batches are issued while fewer than BatchParallelism are
// in flight; at every node a batch's tuple share is split across the
// node's task instances, each instance job queues for a core on its
// machine, and a node stage completes when all its jobs finish (the
// per-batch barrier Trident's consistency guarantee implies). Batch
// completion pays the coordination overhead before the slot frees.
//
// It validates the FluidSim's CPU and pipeline behaviour; ackers,
// receiver threads and the NIC are fluid-only refinements.
type BatchDES struct {
	Topo    *topo.Topology
	Cluster cluster.Spec
	Costs   CostModel
	Noise   NoiseModel
	// ReportMetric selects the reported rate.
	ReportMetric Metric
	// WarmupBatches are excluded from the measurement (default 5).
	WarmupBatches int
	// MeasureBatches is the measurement length (default 40).
	MeasureBatches int
}

// NewBatchDES builds a DES evaluator with calibrated costs and no noise
// (its queueing already provides variation; tests want determinism).
func NewBatchDES(t *topo.Topology, spec cluster.Spec, metric Metric) *BatchDES {
	return &BatchDES{
		Topo:           t,
		Cluster:        spec,
		Costs:          DefaultCosts(),
		Noise:          NoNoise(),
		ReportMetric:   metric,
		WarmupBatches:  5,
		MeasureBatches: 40,
	}
}

// Metric implements Evaluator.
func (d *BatchDES) Metric() Metric { return d.ReportMetric }

// desInstance is one task instance: a single-threaded server with its
// own FIFO job queue. Jobs of the same instance never run concurrently
// (a Storm executor processes tuples sequentially), and a running job
// also occupies one core of the host machine.
type desInstance struct {
	busy   bool
	queued bool // present in the machine's ready list
	q      []*desJob
}

// machineQueue schedules instances onto the machine's cores.
type machineQueue struct {
	free  int
	ready []*desInstance // instances with waiting jobs, FIFO
}

type desJob struct {
	dur   float64 // seconds of core time
	batch *desBatch
	node  int
	inst  *desInstance
}

type desBatch struct {
	id        int
	remaining []int // unfinished parent stages per node
	jobsLeft  []int // unfinished jobs per node stage
	done      int   // completed sink stages
}

// Run implements Evaluator.
func (d *BatchDES) Run(cfg Config, runIndex int) Result {
	t := d.Topo
	spec := d.Cluster
	hints := cfg.NormalizedHints()

	ackers := cfg.Ackers
	if ackers <= 0 {
		ackers = spec.Machines
	}
	counts := append(append([]int(nil), hints...), ackers)
	if spec.Overloads(counts) {
		return Result{Failed: true, Failure: FailurePlacement, Bottleneck: "scheduler", Tasks: cfg.TotalTasks()}
	}
	place := cluster.PlaceRoundRobin(spec, counts)

	rates := t.Rates()
	svc := make([]float64, t.N())
	for v := range t.Nodes {
		svc[v] = t.Nodes[v].TimeUnits + d.Costs.FrameworkOverheadMS
	}
	order := t.TopoOrder()
	sinks := t.Sinks()
	isSink := make([]bool, t.N())
	for _, s := range sinks {
		isSink[s] = true
	}
	parentsCount := make([]int, t.N())
	for v := range t.Nodes {
		parentsCount[v] = len(t.Parents(v))
	}

	eng := des.New()
	machines := make([]*machineQueue, spec.Machines)
	for m := range machines {
		machines[m] = &machineQueue{free: spec.CoresPerMachine}
	}
	// One single-threaded server per task instance (topology tasks only;
	// acker work is a fluid-model refinement).
	instances := make([][]*desInstance, t.N())
	for v := 0; v < t.N(); v++ {
		instances[v] = make([]*desInstance, hints[v])
		for i := range instances[v] {
			instances[v][i] = &desInstance{}
		}
	}

	warmup := d.WarmupBatches
	if warmup <= 0 {
		warmup = 5
	}
	measure := d.MeasureBatches
	if measure <= 0 {
		measure = 40
	}
	totalBatches := warmup + measure
	bs := float64(cfg.BatchSize)

	var (
		inFlight    int
		issued      int
		completed   int
		measStart   = math.Inf(1)
		measEnd     float64
		measBatches int
	)

	var finishJob func(m int, j *desJob)
	var startStage func(b *desBatch, v int)
	var issueBatch func()

	dispatch := func(m int) {
		q := machines[m]
		for q.free > 0 && len(q.ready) > 0 {
			inst := q.ready[0]
			q.ready = q.ready[1:]
			inst.queued = false
			if inst.busy || len(inst.q) == 0 {
				continue
			}
			j := inst.q[0]
			inst.q = inst.q[1:]
			inst.busy = true
			q.free--
			eng.ScheduleAfter(j.dur, func() { finishJob(m, j) })
		}
	}

	enqueue := func(m int, inst *desInstance, j *desJob) {
		inst.q = append(inst.q, j)
		if !inst.busy && !inst.queued {
			inst.queued = true
			machines[m].ready = append(machines[m].ready, inst)
		}
		dispatch(m)
	}

	finishJob = func(m int, j *desJob) {
		machines[m].free++
		j.inst.busy = false
		if len(j.inst.q) > 0 && !j.inst.queued {
			j.inst.queued = true
			machines[m].ready = append(machines[m].ready, j.inst)
		}
		b := j.batch
		b.jobsLeft[j.node]--
		if b.jobsLeft[j.node] == 0 {
			// Stage complete: release children after the hop latency.
			for _, w := range t.Children(j.node) {
				w := w
				eng.ScheduleAfter(d.Costs.HopLatencySec, func() {
					b.remaining[w]--
					if b.remaining[w] == 0 {
						startStage(b, w)
					}
				})
			}
			if isSink[j.node] {
				b.done++
				if b.done == len(sinks) {
					// Batch complete after the coordination overhead.
					eng.ScheduleAfter(d.Costs.BatchOverheadSec, func() {
						inFlight--
						completed++
						if completed == warmup {
							measStart = eng.Now()
						}
						if completed > warmup {
							measBatches++
							measEnd = eng.Now()
						}
						issueBatch()
					})
				}
			}
		}
		dispatch(m)
	}

	startStage = func(b *desBatch, v int) {
		n := hints[v]
		tuples := bs * rates[v] / float64(n)
		durMS := tuples * svc[v]
		if t.Nodes[v].Contentious {
			durMS *= float64(n)
		}
		b.jobsLeft[v] = n
		for i, tid := range place.NodeTasks[v] {
			m := place.MachineOf[tid]
			inst := instances[v][i]
			enqueue(m, inst, &desJob{dur: durMS / 1000, batch: b, node: v, inst: inst})
		}
	}

	issueBatch = func() {
		for inFlight < cfg.BatchParallelism && issued < totalBatches {
			b := &desBatch{
				id:        issued,
				remaining: append([]int(nil), parentsCount...),
				jobsLeft:  make([]int, t.N()),
			}
			issued++
			inFlight++
			for _, v := range order {
				if t.Nodes[v].Kind == topo.Spout {
					startStage(b, v)
				}
			}
		}
	}

	eng.Schedule(0, issueBatch)
	eng.Run(math.Inf(1))

	elapsed := measEnd - measStart
	if measBatches == 0 || elapsed <= 0 {
		return Result{Failed: true, Failure: FailureTimeout, Bottleneck: "timeout", Tasks: cfg.TotalTasks()}
	}
	// Each batch carries bs source tuples per unit-rate spout, scaled by
	// each spout's rate factor.
	spoutSum := 0.0
	for _, s := range t.Spouts() {
		spoutSum += rates[s]
	}
	srcRate := float64(measBatches) * bs * spoutSum / elapsed
	sinkSum := 0.0
	for _, s := range sinks {
		sinkSum += rates[s]
	}
	remoteFrac := 0.0
	if spec.Machines > 1 {
		remoteFrac = 1 - 1/float64(spec.Machines)
	}
	totalBytes := 0.0
	for _, e := range t.Edges {
		out := rates[e.From]
		if t.Nodes[e.From].Kind != topo.Spout {
			sel := t.Nodes[e.From].Selectivity
			if sel == 0 {
				sel = 1
			}
			out *= sel
		}
		totalBytes += out * float64(t.Nodes[e.From].TupleBytes) * remoteFrac
	}
	perSpout := srcRate / spoutSum
	res := Result{
		SpoutRate:             srcRate,
		SinkRate:              perSpout * sinkSum,
		NetworkBytesPerWorker: perSpout * totalBytes / float64(spec.Machines),
		Bottleneck:            "des",
		Tasks:                 cfg.TotalTasks(),
	}
	mult := d.Noise.Multiplier(cfg.Fingerprint(), runIndex)
	res.SpoutRate *= mult
	res.SinkRate *= mult
	res.NetworkBytesPerWorker *= mult
	if d.ReportMetric == SourceTuples {
		res.Throughput = res.SpoutRate
	} else {
		res.Throughput = res.SinkRate
	}
	return res
}
