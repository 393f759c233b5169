package sched

import (
	"math/rand"
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

func plat(cores int) *arch.Platform {
	return arch.MustNewPlatform(cores, arch.ARM7Levels3())
}

// chain returns t0 -> t1 -> t2 with 100-cycle tasks and 50-cycle edges.
func chain(t *testing.T) *taskgraph.Graph {
	t.Helper()
	inv := registers.NewInventory()
	inv.MustAdd("r", 128)
	b := taskgraph.NewBuilder("chain", inv)
	t0 := b.AddTask("t0", 100, "r")
	t1 := b.AddTask("t1", 100, "r")
	t2 := b.AddTask("t2", 100, "r")
	b.AddEdge(t0, t1, 50)
	b.AddEdge(t1, t2, 50)
	return b.MustBuild()
}

func TestMappingHelpers(t *testing.T) {
	m := RoundRobin(5, 2)
	if m[0] != 0 || m[1] != 1 || m[4] != 0 {
		t.Errorf("RoundRobin = %v", m)
	}
	if m.UsedCores(2) != 2 {
		t.Errorf("UsedCores = %d", m.UsedCores(2))
	}
	ct := m.CoreTasks(2)
	if len(ct[0]) != 3 || len(ct[1]) != 2 {
		t.Errorf("CoreTasks = %v", ct)
	}
	c := m.Clone()
	c[0] = 1
	if m[0] != 0 {
		t.Error("Clone not independent")
	}
	g := chain(t)
	if err := make(Mapping, 3).Validate(g, 2); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	if err := make(Mapping, 2).Validate(g, 2); err == nil {
		t.Error("short mapping accepted")
	}
	if err := (Mapping{0, 0, 5}).Validate(g, 2); err == nil {
		t.Error("out-of-range core accepted")
	}
	rng := rand.New(rand.NewSource(1))
	rm := RandomMapping(rng, 100, 4)
	if err := rm.Validate(taskgraph.MustRandom(taskgraph.DefaultRandomConfig(100), 1), 4); err != nil {
		t.Errorf("random mapping invalid: %v", err)
	}
}

func TestListScheduleSameCoreNoComm(t *testing.T) {
	g := chain(t)
	p := plat(2)
	s, err := ListSchedule(g, p, Mapping{0, 0, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := p.MustCoreLevel(0, 1).FreqHz()
	want := 300.0 / f // no communication on-core
	if got := s.MakespanSeconds(); !near(got, want) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
	if s.BusyCycles(0) != 300 || s.BusyCycles(1) != 0 {
		t.Errorf("busy cycles = %d,%d", s.BusyCycles(0), s.BusyCycles(1))
	}
}

func TestListScheduleCrossCoreComm(t *testing.T) {
	g := chain(t)
	p := plat(2)
	s, err := ListSchedule(g, p, Mapping{0, 1, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := p.MustCoreLevel(0, 1).FreqHz()
	// t0 on c0 [0,100], comm 50, t1 on c1 [150,250], comm 50, t2 on c0 [300,400].
	want := 400.0 / f
	if got := s.MakespanSeconds(); !near(got, want) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
	// Eq. (7): both endpoints pay each cross edge.
	if s.BusyCycles(0) != 100+50+50+100 {
		t.Errorf("busy(0) = %d, want 300", s.BusyCycles(0))
	}
	if s.BusyCycles(1) != 100+50+50 {
		t.Errorf("busy(1) = %d, want 200", s.BusyCycles(1))
	}
}

func TestCommBilledAtSlowerClock(t *testing.T) {
	g := chain(t)
	p := plat(2)
	// Core 1 runs at s=2 (100 MHz); cross edges must use the slower clock.
	s, err := ListSchedule(g, p, Mapping{0, 1, 0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	f1 := p.MustCoreLevel(0, 1).FreqHz()
	f2 := p.MustCoreLevel(0, 2).FreqHz()
	// t0: 100/f1. comm: 50/f2 (slower endpoint). t1: 100/f2. comm: 50/f2. t2: 100/f1.
	want := 100/f1 + 50/f2 + 100/f2 + 50/f2 + 100/f1
	if got := s.MakespanSeconds(); !near(got, want) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestPrecedenceRespected(t *testing.T) {
	// Property over random graphs/mappings/scalings: no task starts before
	// every predecessor's finish (+ comm when cross-core).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(n), rng.Int63())
		cores := 2 + rng.Intn(5)
		p := plat(cores)
		m := RandomMapping(rng, n, cores)
		scaling := make([]int, cores)
		for i := range scaling {
			scaling[i] = 1 + rng.Intn(3)
		}
		s, err := ListSchedule(g, p, m, scaling)
		if err != nil {
			t.Fatal(err)
		}
		freq := make([]float64, cores)
		for i, sc := range scaling {
			freq[i] = p.MustCoreLevel(0, sc).FreqHz()
		}
		for _, e := range g.Edges() {
			pre, post := s.Slots[e.From], s.Slots[e.To]
			minStart := pre.EndSec
			if m[e.From] != m[e.To] {
				fSlow := freq[m[e.From]]
				if freq[m[e.To]] < fSlow {
					fSlow = freq[m[e.To]]
				}
				minStart += float64(e.Cycles) / fSlow
			}
			if post.StartSec < minStart-1e-12 {
				t.Fatalf("trial %d: edge %d->%d violated: start %v < %v",
					trial, e.From, e.To, post.StartSec, minStart)
			}
		}
		// No overlap on any core.
		perCore := make(map[int][]Slot)
		for _, slot := range s.Slots {
			perCore[slot.Core] = append(perCore[slot.Core], slot)
		}
		for c, slots := range perCore {
			for i := range slots {
				for j := i + 1; j < len(slots); j++ {
					a, b := slots[i], slots[j]
					if a.StartSec < b.EndSec-1e-12 && b.StartSec < a.EndSec-1e-12 {
						t.Fatalf("trial %d: core %d overlap: %+v vs %+v", trial, c, a, b)
					}
				}
			}
		}
		// Makespan equals the max finish time.
		maxEnd := 0.0
		for _, slot := range s.Slots {
			if slot.EndSec > maxEnd {
				maxEnd = slot.EndSec
			}
		}
		if !near(maxEnd, s.MakespanSeconds()) {
			t.Fatalf("trial %d: makespan %v != max end %v", trial, s.MakespanSeconds(), maxEnd)
		}
	}
}

func TestMakespanLowerBounds(t *testing.T) {
	// Makespan must be >= critical path at the fastest clock and >= the
	// bottleneck core's busy compute time.
	g := taskgraph.MPEG2()
	p := plat(4)
	m := RoundRobin(g.N(), 4)
	s, err := ListSchedule(g, p, m, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := p.MustCoreLevel(0, 1).FreqHz()
	cp := float64(g.CriticalPathCycles()) / f
	if s.MakespanSeconds() < cp-1e-12 {
		t.Errorf("makespan %v below critical path %v", s.MakespanSeconds(), cp)
	}
	if s.MakespanSeconds() < s.MaxBusySeconds()-1e-9 {
		// Busy includes comm billed to both sides, so compare softly.
		t.Logf("makespan %v, max busy %v", s.MakespanSeconds(), s.MaxBusySeconds())
	}
}

func TestPipelinedMakespan(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	m := RoundRobin(g.N(), 4)
	s, err := ListSchedule(g, p, m, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	one := s.PipelinedMakespanSeconds(1)
	if !near(one, s.MakespanSeconds()) {
		t.Errorf("1-iteration pipeline %v != makespan %v", one, s.MakespanSeconds())
	}
	many := s.PipelinedMakespanSeconds(taskgraph.MPEG2Frames)
	if many > s.MakespanSeconds() {
		t.Errorf("pipelining increased makespan: %v > %v", many, s.MakespanSeconds())
	}
	if many < s.MaxBusySeconds()-1e-12 {
		t.Errorf("pipelined makespan %v below bottleneck %v", many, s.MaxBusySeconds())
	}
}

func TestUtilization(t *testing.T) {
	g := chain(t)
	p := plat(2)
	s, err := ListSchedule(g, p, Mapping{0, 0, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// α_i, the eq. (5) activity factor, is busy seconds over the makespan.
	if u := s.BusySeconds(0) / s.MakespanSeconds(); !near(u, 1.0) {
		t.Errorf("core 0 utilization = %v, want 1", u)
	}
	if u := s.BusySeconds(1) / s.MakespanSeconds(); u != 0 {
		t.Errorf("idle core utilization = %v, want 0", u)
	}
}

func TestListScheduleErrors(t *testing.T) {
	g := chain(t)
	p := plat(2)
	if _, err := ListSchedule(g, p, Mapping{0, 0}, []int{1, 1}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := ListSchedule(g, p, Mapping{0, 0, 0}, []int{1}); err == nil {
		t.Error("short scaling accepted")
	}
	if _, err := ListSchedule(g, p, Mapping{0, 0, 0}, []int{1, 9}); err == nil {
		t.Error("bad scaling accepted")
	}
}

func TestScalingSlowsSchedule(t *testing.T) {
	g := taskgraph.MPEG2()
	p := plat(4)
	m := RoundRobin(g.N(), 4)
	fast, err := ListSchedule(g, p, m, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ListSchedule(g, p, m, []int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if slow.MakespanSeconds() <= fast.MakespanSeconds() {
		t.Errorf("scaling down did not slow schedule: %v <= %v",
			slow.MakespanSeconds(), fast.MakespanSeconds())
	}
	// Cycle counts are frequency-independent.
	for c := 0; c < 4; c++ {
		if fast.BusyCycles(c) != slow.BusyCycles(c) {
			t.Errorf("core %d busy cycles changed with scaling: %d vs %d",
				c, fast.BusyCycles(c), slow.BusyCycles(c))
		}
	}
}

func TestGantt(t *testing.T) {
	g := chain(t)
	p := plat(2)
	s, err := ListSchedule(g, p, Mapping{0, 1, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Gantt(60)
	if !strings.Contains(out, "core 0") || !strings.Contains(out, "core 1") {
		t.Errorf("Gantt missing core rows:\n%s", out)
	}
	if !strings.Contains(out, "makespan") {
		t.Errorf("Gantt missing makespan:\n%s", out)
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+absf(a)+absf(b))
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
