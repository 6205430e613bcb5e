// Package cluster models the physical substrate the paper ran on: 80
// commodity machines (iMacs: 4 cores at 2.7 GHz, 8 GB RAM, 1 Gbps NICs)
// joined through rack switches, managed by a YARN-like scheduler that
// places one Storm worker per machine and assigns task instances to
// workers round-robin (Storm's even scheduler).
package cluster

import "fmt"

// Spec describes a homogeneous cluster.
type Spec struct {
	Machines int
	// CoresPerMachine is the per-machine parallel compute capacity.
	CoresPerMachine int
	// CoreMillisPerSec is the compute budget of one core per wall
	// second (1000 = one compute unit ≈ 1 ms of busy wait, §IV-B1).
	CoreMillisPerSec float64
	// NICBytesPerSec is the per-machine network bandwidth (1 Gbps ≈
	// 128 MB/s in the paper's setup).
	NICBytesPerSec float64
	// TaskSlotsPerMachine bounds how many task instances a worker can
	// host before the JVM is memory-exhausted and the topology fails to
	// run (the "zero performance" the pla stopping rule watches for).
	TaskSlotsPerMachine int
	// ThrashTasksPerCore is the oversubscription level beyond which
	// context switching starts to tax throughput.
	ThrashTasksPerCore float64
}

// Paper returns the evaluation cluster of §IV-C: 80 machines × 4 cores.
func Paper() Spec {
	return Spec{
		Machines:            80,
		CoresPerMachine:     4,
		CoreMillisPerSec:    1000,
		NICBytesPerSec:      128e6,
		TaskSlotsPerMachine: 48,
		ThrashTasksPerCore:  2,
	}
}

// Small returns a laptop-scale cluster for examples and fast tests.
func Small() Spec {
	return Spec{
		Machines:            4,
		CoresPerMachine:     4,
		CoreMillisPerSec:    1000,
		NICBytesPerSec:      128e6,
		TaskSlotsPerMachine: 48,
		ThrashTasksPerCore:  2,
	}
}

// Validate sanity-checks the spec.
func (s Spec) Validate() error {
	if s.Machines <= 0 || s.CoresPerMachine <= 0 {
		return fmt.Errorf("cluster: need positive machines and cores, got %d×%d", s.Machines, s.CoresPerMachine)
	}
	if s.CoreMillisPerSec <= 0 || s.NICBytesPerSec <= 0 {
		return fmt.Errorf("cluster: need positive core and NIC capacity")
	}
	if s.TaskSlotsPerMachine <= 0 {
		return fmt.Errorf("cluster: need positive task slots")
	}
	return nil
}

// TotalCores returns the cluster-wide core count (the paper's "320
// cores").
func (s Spec) TotalCores() int { return s.Machines * s.CoresPerMachine }

// TotalTaskSlots returns the cluster-wide instance capacity.
func (s Spec) TotalTaskSlots() int { return s.Machines * s.TaskSlotsPerMachine }

// MaxConcurrentTrials reports how many trial deployments, each needing
// tasksPerTrial task instances, the cluster can host side by side —
// the capacity bound a batch-suggesting tuner should respect when
// picking its batch size. At least one trial always fits (the
// sequential baseline).
func (s Spec) MaxConcurrentTrials(tasksPerTrial int) int {
	if tasksPerTrial <= 0 {
		return 1
	}
	n := s.TotalTaskSlots() / tasksPerTrial
	if n < 1 {
		n = 1
	}
	return n
}

// Placement maps task instances onto machines.
type Placement struct {
	Spec Spec
	// MachineOf[globalTask] = machine index.
	MachineOf []int
	// TasksOn[machine] = number of instances hosted.
	TasksOn []int
	// NodeTasks[node] = global task ids of that node's instances.
	NodeTasks [][]int
}

// PlaceRoundRobin distributes counts[node] instances of each node over
// the machines in Storm's even-scheduler style: tasks are dealt one
// machine at a time in node order, wrapping around the cluster, so
// every node's instances spread as widely as possible.
func PlaceRoundRobin(spec Spec, counts []int) *Placement {
	total := 0
	for _, c := range counts {
		total += c
	}
	p := &Placement{
		Spec:      spec,
		MachineOf: make([]int, total),
		TasksOn:   make([]int, spec.Machines),
		NodeTasks: make([][]int, len(counts)),
	}
	gid := 0
	m := 0
	for node, c := range counts {
		p.NodeTasks[node] = make([]int, 0, c)
		for i := 0; i < c; i++ {
			p.MachineOf[gid] = m
			p.TasksOn[m]++
			p.NodeTasks[node] = append(p.NodeTasks[node], gid)
			gid++
			m = (m + 1) % spec.Machines
		}
	}
	return p
}

// Overloads reports whether round-robin placement of counts[node]
// instances puts more than TaskSlotsPerMachine on some machine — the
// condition under which the simulated topology fails to start and
// measures zero throughput. Round robin deals the tasks evenly, so that
// happens exactly when they outnumber the cluster's slots; the answer
// needs no placement, and the sum stops at the first excess, so it
// cannot overflow. Counts are non-negative.
func (s Spec) Overloads(counts []int) bool {
	free := s.TotalTaskSlots()
	for _, c := range counts {
		if c > free {
			return true
		}
		free -= c
	}
	return false
}

// MaxTasksOnAnyMachine returns the placement's peak per-machine load.
func (p *Placement) MaxTasksOnAnyMachine() int {
	m := 0
	for _, n := range p.TasksOn {
		if n > m {
			m = n
		}
	}
	return m
}
