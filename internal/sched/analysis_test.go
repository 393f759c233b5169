package sched

import (
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

func TestValidateAcceptsSchedulerOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.Fig8(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(35), 6),
	}
	for _, g := range graphs {
		for trial := 0; trial < 10; trial++ {
			cores := 2 + rng.Intn(4)
			p := plat(cores)
			m := RandomMapping(rng, g.N(), cores)
			scaling := make([]int, cores)
			for i := range scaling {
				scaling[i] = 1 + rng.Intn(3)
			}
			s, err := ListSchedule(g, p, m, scaling)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s trial %d: %v", g.Name(), trial, err)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := taskgraph.Fig8()
	p := plat(2)
	s, err := ListSchedule(g, p, RoundRobin(g.N(), 2), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Violate precedence: drag the sink task to time zero.
	last := g.Leaves()[0]
	orig := s.Slots[last]
	s.Slots[last].StartSec = 0
	s.Slots[last].EndSec = orig.EndSec - orig.StartSec
	if err := s.Validate(); err == nil {
		t.Error("corrupted schedule validated")
	}
	s.Slots[last] = orig
	if err := s.Validate(); err != nil {
		t.Fatalf("restored schedule invalid: %v", err)
	}
	// Wrong core.
	s.Slots[0].Core = 1 - s.Slots[0].Core
	if err := s.Validate(); err == nil {
		t.Error("core mismatch validated")
	}
}

func TestValidateDifferentClockDomains(t *testing.T) {
	// Cross-core comm at mixed scalings must validate (billed at the slower
	// endpoint) — regression guard for the clock-domain billing rule.
	g := taskgraph.MustRandom(taskgraph.DefaultRandomConfig(25), 12)
	p := arch.MustNewPlatform(3, arch.ARM7Levels3())
	for _, scaling := range [][]int{{1, 2, 3}, {3, 2, 1}, {2, 2, 2}, {1, 1, 3}} {
		s, err := ListSchedule(g, p, RoundRobin(g.N(), 3), scaling)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("scaling %v: %v", scaling, err)
		}
	}
}
