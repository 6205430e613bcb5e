package storm

import (
	"math"

	"stormtune/internal/cluster"
	"stormtune/internal/topo"
)

// CostModel collects the framework constants of the simulation. Values
// are calibrated so that the paper's qualitative results emerge; each
// constant maps to a real Storm/Trident mechanism.
type CostModel struct {
	// FrameworkOverheadMS is per-tuple (de)serialization and queue
	// handling added to every node's service time.
	FrameworkOverheadMS float64
	// AckCostMS is acker bookkeeping per processed tuple.
	AckCostMS float64
	// RecvCostMS is receiver-thread cost per remote tuple.
	RecvCostMS float64
	// BatchOverheadSec is the per-batch coordination cost c0 (Trident
	// commit protocol).
	BatchOverheadSec float64
	// HopLatencySec is per-stage batch coordination latency on the
	// critical path (Trident's barrier and commit messages between
	// consecutive stages). It is independent of batch size and
	// parallelism, which is what caps parallelism-only tuning of
	// lightweight pipelines (Figure 8's flat "h" curves).
	HopLatencySec float64
	// ThreadSwitchPenalty taxes machine capacity per task beyond the
	// thrash threshold.
	ThreadSwitchPenalty float64
	// WorkerThreadPenalty taxes capacity per pool thread beyond 4×cores
	// (oversized pools cost context switches).
	WorkerThreadPenalty float64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		FrameworkOverheadMS: 0.005,
		AckCostMS:           0.002,
		RecvCostMS:          0.004,
		BatchOverheadSec:    0.05,
		HopLatencySec:       0.035,
		ThreadSwitchPenalty: 0.35,
		WorkerThreadPenalty: 0.01,
	}
}

// FluidSim evaluates configurations by solving for the maximum
// sustainable rate under the capacity constraints described in
// DESIGN.md §5. It is deterministic up to the noise model.
type FluidSim struct {
	Topo    *topo.Topology
	Cluster cluster.Spec
	Costs   CostModel
	Noise   NoiseModel
	// Which rate Run reports as Throughput.
	ReportMetric Metric
}

// NewFluidSim builds an evaluator with calibrated costs and noise.
func NewFluidSim(t *topo.Topology, spec cluster.Spec, metric Metric, noiseSeed int64) *FluidSim {
	return &FluidSim{
		Topo:         t,
		Cluster:      spec,
		Costs:        DefaultCosts(),
		Noise:        DefaultNoise(noiseSeed),
		ReportMetric: metric,
	}
}

// Metric implements Evaluator.
func (f *FluidSim) Metric() Metric { return f.ReportMetric }

// Run implements Evaluator. It returns the throughput one measurement
// run observes under cfg.
func (f *FluidSim) Run(cfg Config, runIndex int) Result {
	res := f.Solve(cfg)
	if res.Failed {
		return res
	}
	m := f.Noise.Multiplier(cfg.Fingerprint(), runIndex)
	res.Throughput *= m
	res.SpoutRate *= m
	res.SinkRate *= m
	res.NetworkBytesPerWorker *= m
	return res
}

// Solve computes the noise-free steady state for cfg.
func (f *FluidSim) Solve(cfg Config) Result {
	t := f.Topo
	spec := f.Cluster
	costs := f.Costs

	hints := cfg.NormalizedHints()
	nNodes := t.N()

	// Ackers are system tasks placed alongside the topology's.
	ackers := cfg.Ackers
	if ackers <= 0 {
		ackers = spec.Machines
	}
	counts := append(append([]int(nil), hints...), ackers)
	totalTasks := 0
	for _, c := range hints {
		totalTasks += c
	}
	if spec.Overloads(counts) {
		return Result{Failed: true, Failure: FailurePlacement, Bottleneck: "scheduler", Tasks: totalTasks}
	}
	place := cluster.PlaceRoundRobin(spec, counts)

	rates := t.Rates()
	spouts := t.Spouts()
	// Aggregate spout emission per unit λ, weighted by rate factors.
	spoutSum := 0.0
	for _, s := range spouts {
		spoutSum += rates[s]
	}

	// Output rate per node per unit per-spout rate.
	outRate := make([]float64, nNodes)
	for v := range t.Nodes {
		if t.Nodes[v].Kind == topo.Spout {
			outRate[v] = rates[v]
			continue
		}
		sel := t.Nodes[v].Selectivity
		if sel == 0 {
			sel = 1
		}
		outRate[v] = rates[v] * sel
	}

	// Per-instance CPU demand per unit rate (ms/s): contentious nodes'
	// service time scales with their instance count (§IV-B2), which
	// exactly cancels the parallelism gain.
	instDemand := make([]float64, nNodes)
	svc := make([]float64, nNodes)
	for v := range t.Nodes {
		svc[v] = t.Nodes[v].TimeUnits + costs.FrameworkOverheadMS
		d := rates[v] * svc[v]
		if !t.Nodes[v].Contentious {
			d /= float64(hints[v])
		}
		instDemand[v] = d
	}

	bounds := map[string]float64{}

	// 1. Per-instance bound: an instance is single-threaded and owns at
	// most one core.
	lInst := math.Inf(1)
	for v := range t.Nodes {
		if instDemand[v] <= 0 {
			continue
		}
		if b := spec.CoreMillisPerSec / instDemand[v]; b < lInst {
			lInst = b
		}
	}
	bounds["instance"] = lInst

	// 2. Per-machine CPU bound, including acker and receiver work.
	remoteFrac := 0.0
	if spec.Machines > 1 {
		remoteFrac = 1 - 1/float64(spec.Machines)
	}
	totalArrivals := 0.0 // tuples/s per unit rate, for ack work
	for v := range t.Nodes {
		totalArrivals += rates[v]
	}
	ackWorkPerAcker := totalArrivals * costs.AckCostMS / float64(ackers)

	demandOnMachine := make([]float64, spec.Machines)
	recvOnMachine := make([]float64, spec.Machines)
	for v := 0; v < nNodes; v++ {
		for _, tid := range place.NodeTasks[v] {
			m := place.MachineOf[tid]
			demandOnMachine[m] += instDemand[v]
			// Remote arrivals for this instance pass the machine's
			// receiver threads.
			recvOnMachine[m] += rates[v] / float64(hints[v]) * remoteFrac
		}
	}
	for _, tid := range place.NodeTasks[nNodes] { // ackers
		m := place.MachineOf[tid]
		demandOnMachine[m] += ackWorkPerAcker
	}
	lMach := math.Inf(1)
	effCores := float64(spec.CoresPerMachine)
	if float64(cfg.WorkerThreads) < effCores {
		effCores = float64(cfg.WorkerThreads)
	}
	threadExcess := float64(cfg.WorkerThreads) - 4*float64(spec.CoresPerMachine)
	threadTax := 1.0
	if threadExcess > 0 {
		threadTax = 1 + costs.WorkerThreadPenalty*threadExcess
	}
	for m := 0; m < spec.Machines; m++ {
		d := demandOnMachine[m] + recvOnMachine[m]*costs.RecvCostMS
		if d <= 0 {
			continue
		}
		thrash := 1.0
		if excess := float64(place.TasksOn[m]) - spec.ThrashTasksPerCore*float64(spec.CoresPerMachine); excess > 0 {
			thrash = 1 + costs.ThreadSwitchPenalty*excess
		}
		cap := effCores * spec.CoreMillisPerSec / (thrash * threadTax)
		if b := cap / d; b < lMach {
			lMach = b
		}
	}
	bounds["machine"] = lMach

	// 3. Acker task bound.
	if ackWorkPerAcker > 0 {
		bounds["acker"] = spec.CoreMillisPerSec / ackWorkPerAcker
	}

	// 4. Receiver-thread bound per machine.
	lRecv := math.Inf(1)
	recvCap := float64(cfg.ReceiverThreads) * spec.CoreMillisPerSec
	for m := 0; m < spec.Machines; m++ {
		if recvOnMachine[m] <= 0 {
			continue
		}
		if b := recvCap / (recvOnMachine[m] * costs.RecvCostMS); b < lRecv {
			lRecv = b
		}
	}
	bounds["receiver"] = lRecv

	// 5. NIC ingress bound per machine.
	bytesIn := make([]float64, spec.Machines)
	for _, e := range t.Edges {
		per := outRate[e.From] * float64(t.Nodes[e.From].TupleBytes) * remoteFrac
		for _, tid := range place.NodeTasks[e.To] {
			bytesIn[place.MachineOf[tid]] += per / float64(hints[e.To])
		}
	}
	lNIC := math.Inf(1)
	for m := 0; m < spec.Machines; m++ {
		if bytesIn[m] <= 0 {
			continue
		}
		if b := spec.NICBytesPerSec / bytesIn[m]; b < lNIC {
			lNIC = b
		}
	}
	bounds["nic"] = lNIC

	// 6. Batch pipeline bound: at most BatchParallelism batches in
	// flight, each needing L seconds end to end. A batch carries
	// BatchSize source tuples per spout, so the bound is directly in
	// per-spout rate. Stage times inflate by the cluster's worst
	// context-switch factor: a thrashing machine slows every stage
	// whose instances it hosts, and the per-batch barrier waits for the
	// slowest instance.
	maxThrash := 1.0
	for m := 0; m < spec.Machines; m++ {
		if excess := float64(place.TasksOn[m]) - spec.ThrashTasksPerCore*float64(spec.CoresPerMachine); excess > 0 {
			if th := 1 + costs.ThreadSwitchPenalty*excess; th > maxThrash {
				maxThrash = th
			}
		}
	}
	bounds["batch"] = f.batchBound(cfg, hints, rates, svc, maxThrash)

	lambda := math.Inf(1)
	bottleneck := "none"
	for name, b := range bounds {
		if b < lambda {
			lambda = b
			bottleneck = name
		}
	}
	if math.IsInf(lambda, 1) || lambda < 0 {
		lambda = 0
	}

	sinkSum := 0.0
	for _, s := range t.Sinks() {
		sinkSum += rates[s]
	}
	totalBytes := 0.0
	for _, e := range t.Edges {
		totalBytes += outRate[e.From] * float64(t.Nodes[e.From].TupleBytes) * remoteFrac
	}

	res := Result{
		SpoutRate:             lambda * spoutSum,
		SinkRate:              lambda * sinkSum,
		NetworkBytesPerWorker: lambda * totalBytes / float64(spec.Machines),
		Bottleneck:            bottleneck,
		Tasks:                 totalTasks,
	}
	if f.ReportMetric == SourceTuples {
		res.Throughput = res.SpoutRate
	} else {
		res.Throughput = res.SinkRate
	}
	return res
}

// batchBound returns the pipeline-limited aggregate source rate
// bp × bs / L(bs), where L is the batch latency along the critical
// path.
func (f *FluidSim) batchBound(cfg Config, hints []int, rates, svc []float64, thrash float64) float64 {
	t := f.Topo
	costs := f.Costs
	bs := float64(cfg.BatchSize)

	// stageSec[v]: time for a batch's tuples to clear node v.
	best := make([]float64, t.N())
	hops := make([]int, t.N())
	maxL, maxHops := 0.0, 0
	for _, v := range t.TopoOrder() {
		b := 0.0
		h := 0
		for _, p := range t.Parents(v) {
			if best[p] > b {
				b = best[p]
			}
			if hops[p] > h {
				h = hops[p]
			}
		}
		eff := float64(hints[v])
		if t.Nodes[v].Contentious {
			eff = 1
		}
		stage := bs * rates[v] * svc[v] * thrash / (1000 * eff)
		best[v] = b + stage
		hops[v] = h + 1
		if best[v] > maxL {
			maxL = best[v]
		}
		if hops[v] > maxHops {
			maxHops = hops[v]
		}
	}
	latency := costs.BatchOverheadSec + maxL + costs.HopLatencySec*float64(maxHops)
	if latency <= 0 {
		return math.Inf(1)
	}
	return float64(cfg.BatchParallelism) * bs / latency
}
