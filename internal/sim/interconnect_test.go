package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// fabricPlat builds an ARM7 platform behind the given interconnect.
func fabricPlat(t *testing.T, cores int, ic arch.Interconnect) *arch.Platform {
	t.Helper()
	p, err := arch.NewPlatform(cores, arch.ARM7Levels3(), arch.WithInterconnect(ic))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimMatchesListScheduleOnFabrics is TestSimMatchesListSchedule under
// contended interconnects: the kernel carries the same cut-through channel
// reservation in integer femtoseconds, so makespans must still agree to
// clock-quantization error — including every queuing delay.
func TestSimMatchesListScheduleOnFabrics(t *testing.T) {
	fabrics := map[string]arch.Interconnect{
		"bus":  {Topology: arch.TopologyBus, BandwidthBps: 4e9, HopLatencySec: 1e-4},
		"mesh": {Topology: arch.TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4},
	}
	graphs := []*taskgraph.Graph{
		taskgraph.MPEG2(),
		taskgraph.Fig8(),
		taskgraph.MustRandom(taskgraph.DefaultRandomConfig(30), 5),
	}
	for name, ic := range fabrics {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			contended := false
			for _, g := range graphs {
				for trial := 0; trial < 8; trial++ {
					cores := 2 + rng.Intn(4)
					p := fabricPlat(t, cores, ic)
					m := sched.RandomMapping(rng, g.N(), cores)
					scaling := make([]int, cores)
					for i := range scaling {
						scaling[i] = 1 + rng.Intn(3)
					}
					s, err := sched.ListSchedule(g, p, m, scaling)
					if err != nil {
						t.Fatal(err)
					}
					r, err := Run(g, p, m, scaling, Config{Iterations: 1})
					if err != nil {
						t.Fatal(err)
					}
					rel := math.Abs(r.MakespanSec-s.MakespanSeconds()) / s.MakespanSeconds()
					if rel > 1e-9 {
						t.Errorf("%s trial %d: sim makespan %.12f != sched %.12f (rel %v)",
							g.Name(), trial, r.MakespanSec, s.MakespanSeconds(), rel)
					}
					// The fabric must actually bite somewhere: at least one
					// trial's makespan exceeds the ideal-fabric run of the
					// same mapping.
					ideal, err := sched.ListSchedule(g, plat(cores), m, scaling)
					if err != nil {
						t.Fatal(err)
					}
					if s.MakespanSeconds() != ideal.MakespanSeconds() {
						contended = true
					}
				}
			}
			if !contended {
				t.Error("interconnect never changed a makespan — fabric path untested")
			}
		})
	}
}

// TestSimRefusesFabricTimeBeyondRange: a hop latency, a serialization time
// or a contended arrival beyond desim's ±9223 s range is an error naming
// the range, never a wrapped time.
func TestSimRefusesFabricTimeBeyondRange(t *testing.T) {
	// A four-task chain alternating cores crosses the fabric three times.
	b := taskgraph.NewBuilder("chain", registers.NewInventory())
	prev := b.AddTask("t0", 1000)
	for i := 1; i < 4; i++ {
		next := b.AddTask(fmt.Sprintf("t%d", i), 1000)
		b.AddEdge(prev, next, 10)
		prev = next
	}
	g := b.MustBuild()
	m := sched.Mapping{0, 1, 0, 1}
	for name, ic := range map[string]arch.Interconnect{
		"hop latency":   {Topology: arch.TopologyBus, BandwidthBps: 4e9, HopLatencySec: 1e4},
		"serialization": {Topology: arch.TopologyBus, BandwidthBps: 1e-3, HopLatencySec: 1e-4},
		"arrivals":      {Topology: arch.TopologyBus, BandwidthBps: 4e9, HopLatencySec: 4000},
	} {
		_, err := Run(g, fabricPlat(t, 2, ic), m, []int{1, 1}, Config{})
		if err == nil || !strings.Contains(err.Error(), "±9223 s range") {
			t.Errorf("%s: Run error %v, want one naming the ±9223 s range", name, err)
		}
	}
	// Three 3000 s hops stay inside the range and still simulate.
	ic := arch.Interconnect{Topology: arch.TopologyBus, BandwidthBps: 4e9, HopLatencySec: 3000}
	r, err := Run(g, fabricPlat(t, 2, ic), m, []int{1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MakespanSec < 9000 {
		t.Errorf("makespan %v s, want three 3000 s hops", r.MakespanSec)
	}
}
