package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperSpec(t *testing.T) {
	s := Paper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalCores() != 320 {
		t.Fatalf("paper cluster has %d cores, want 320", s.TotalCores())
	}
	if s.Machines != 80 {
		t.Fatalf("paper cluster has %d machines, want 80", s.Machines)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Machines: -1, CoresPerMachine: 4, CoreMillisPerSec: 1000, NICBytesPerSec: 1, TaskSlotsPerMachine: 1},
		{Machines: 1, CoresPerMachine: 4, CoreMillisPerSec: 0, NICBytesPerSec: 1, TaskSlotsPerMachine: 1},
		{Machines: 1, CoresPerMachine: 4, CoreMillisPerSec: 1, NICBytesPerSec: 1, TaskSlotsPerMachine: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
}

func TestPlaceRoundRobinSpreads(t *testing.T) {
	spec := Spec{Machines: 4, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 1, TaskSlotsPerMachine: 10, ThrashTasksPerCore: 4}
	p := PlaceRoundRobin(spec, []int{4, 4})
	// 8 tasks over 4 machines → exactly 2 per machine.
	for m, n := range p.TasksOn {
		if n != 2 {
			t.Fatalf("machine %d has %d tasks, want 2", m, n)
		}
	}
	// Each node's instances land on all 4 machines.
	for node := 0; node < 2; node++ {
		seen := map[int]bool{}
		for _, tid := range p.NodeTasks[node] {
			seen[p.MachineOf[tid]] = true
		}
		if len(seen) != 4 {
			t.Fatalf("node %d spread over %d machines, want 4", node, len(seen))
		}
	}
}

func TestPlacementOverload(t *testing.T) {
	spec := Spec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 1, TaskSlotsPerMachine: 3, ThrashTasksPerCore: 4}
	if spec.Overloads([]int{6}) || spec.Overloads([]int{2, 4}) {
		t.Fatal("6 tasks on 2×3 slots should fit")
	}
	if !spec.Overloads([]int{7}) || !spec.Overloads([]int{3, 4}) {
		t.Fatal("7 tasks on 2×3 slots should overload")
	}
	// The sum stops at the first excess instead of overflowing.
	if !spec.Overloads([]int{math.MaxInt, math.MaxInt}) || !spec.Overloads([]int{1, math.MaxInt}) {
		t.Fatal("counts summing past MaxInt must overload")
	}
	// The placement agrees: round robin puts at most 3 on a machine
	// exactly when the tasks fit.
	for total := 1; total <= 8; total++ {
		p := PlaceRoundRobin(spec, []int{total})
		if over := p.MaxTasksOnAnyMachine() > spec.TaskSlotsPerMachine; over != spec.Overloads([]int{total}) {
			t.Fatalf("%d tasks: placement overloaded=%v, Overloads=%v", total, over, !over)
		}
	}
}

func TestQuickPlacementConservation(t *testing.T) {
	spec := Paper()
	f := func(a, b, c uint8) bool {
		counts := []int{1 + int(a)%50, 1 + int(b)%50, 1 + int(c)%50}
		p := PlaceRoundRobin(spec, counts)
		total := 0
		for _, n := range p.TasksOn {
			total += n
		}
		want := counts[0] + counts[1] + counts[2]
		if total != want || len(p.MachineOf) != want {
			return false
		}
		// Per-machine balance within 1 of ceiling.
		if p.MaxTasksOnAnyMachine() > (want+spec.Machines-1)/spec.Machines+1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxConcurrentTrials(t *testing.T) {
	s := Paper() // 80 × 48 = 3840 slots
	if got := s.MaxConcurrentTrials(100); got != 38 {
		t.Fatalf("MaxConcurrentTrials(100) = %d, want 38", got)
	}
	// A trial bigger than the cluster still gets one sequential slot.
	if got := s.MaxConcurrentTrials(10000); got != 1 {
		t.Fatalf("oversized trial should report 1, got %d", got)
	}
	if got := s.MaxConcurrentTrials(0); got != 1 {
		t.Fatalf("degenerate task count should report 1, got %d", got)
	}
}

func TestMaxConcurrentTrialsEdgeCases(t *testing.T) {
	s := Spec{Machines: 2, CoresPerMachine: 4, CoreMillisPerSec: 1000,
		NICBytesPerSec: 1, TaskSlotsPerMachine: 8, ThrashTasksPerCore: 2} // 16 slots
	cases := []struct {
		tasksPerTrial, want int
		why                 string
	}{
		{-5, 1, "negative task count degrades to the sequential baseline"},
		{0, 1, "zero task count degrades to the sequential baseline"},
		{16, 1, "exact-fit single trial occupies the whole cluster"},
		{17, 1, "trial larger than the cluster still gets one sequential slot"},
		{8, 2, "exact-fit boundary: two trials pack with no slack"},
		{7, 2, "just under the boundary must not round up to 3"},
		{5, 3, "16/5 truncates to 3"},
		{1, 16, "one-task trials fill every slot"},
	}
	for _, c := range cases {
		if got := s.MaxConcurrentTrials(c.tasksPerTrial); got != c.want {
			t.Errorf("MaxConcurrentTrials(%d) = %d, want %d: %s", c.tasksPerTrial, got, c.want, c.why)
		}
	}
	// The bound never exceeds the slot count and is always ≥ 1.
	for tasks := -2; tasks <= 20; tasks++ {
		got := s.MaxConcurrentTrials(tasks)
		if got < 1 || got > s.TotalTaskSlots() {
			t.Fatalf("MaxConcurrentTrials(%d) = %d out of [1, %d]", tasks, got, s.TotalTaskSlots())
		}
	}
}
