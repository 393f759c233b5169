package sched

import (
	"math"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// Fabric parameters shared by the tests below: 1 Gbit/s links, 100 ns per
// hop, the default 32 bits per communication cycle. A 50-cycle edge is
// then 1600 bits: ser = 1.6 µs, one hop = 1.7 µs total.
const (
	testBwBps  = 1e9
	testHopSec = 1e-7
)

func busPlat(cores int) *arch.Platform {
	p, err := arch.NewPlatform(cores, arch.ARM7Levels3(), arch.WithInterconnect(arch.Interconnect{
		Topology:      arch.TopologyBus,
		BandwidthBps:  testBwBps,
		HopLatencySec: testHopSec,
	}))
	if err != nil {
		panic(err)
	}
	return p
}

func meshPlat(cores, width int) *arch.Platform {
	p, err := arch.NewPlatform(cores, arch.ARM7Levels3(), arch.WithInterconnect(arch.Interconnect{
		Topology:      arch.TopologyMesh,
		BandwidthBps:  testBwBps,
		HopLatencySec: testHopSec,
		MeshWidth:     width,
	}))
	if err != nil {
		panic(err)
	}
	return p
}

// fork returns a -> {b, c} with 100-cycle tasks and 50-cycle edges.
func fork(t *testing.T) *taskgraph.Graph {
	t.Helper()
	inv := registers.NewInventory()
	inv.MustAdd("r", 128)
	b := taskgraph.NewBuilder("fork", inv)
	a := b.AddTask("a", 100, "r")
	b1 := b.AddTask("b", 100, "r")
	c := b.AddTask("c", 100, "r")
	b.AddEdge(a, b1, 50)
	b.AddEdge(a, c, 50)
	return b.MustBuild()
}

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-15+1e-12*math.Abs(want) {
		t.Fatalf("%s = %.15g, want %.15g", what, got, want)
	}
}

func TestInterconnectUncontendedTransfer(t *testing.T) {
	g := chain(t)
	p := busPlat(2)
	s, err := ListSchedule(g, p, Mapping{0, 1, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dur := 100 / 200e6
	xfer := testHopSec + 50*arch.DefaultBitsPerCycle/testBwBps
	approx(t, "t1 start", s.Slots[1].StartSec, dur+xfer)
	approx(t, "t2 start", s.Slots[2].StartSec, 2*dur+2*xfer)
	approx(t, "makespan", s.MakespanSeconds(), 3*dur+2*xfer)
	approx(t, "t0→t1 transfer", s.Slots[1].StartSec-s.Slots[0].EndSec, xfer)
	approx(t, "t1→t2 transfer", s.Slots[2].StartSec-s.Slots[1].EndSec, xfer)

	// The fabric shapes timing only: eq. (7) billing matches the ideal
	// platform's bit for bit.
	ideal, err := ListSchedule(g, plat(2), Mapping{0, 1, 0}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if s.BusyCycles(c) != ideal.BusyCycles(c) {
			t.Fatalf("core %d bills %d cycles under the fabric, %d ideal",
				c, s.BusyCycles(c), ideal.BusyCycles(c))
		}
	}
}

func TestBusContentionSerializes(t *testing.T) {
	g := fork(t)
	p := busPlat(3)
	s, err := ListSchedule(g, p, Mapping{0, 1, 2}, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dur := 100 / 200e6
	ser := 50 * arch.DefaultBitsPerCycle / testBwBps
	// Both tokens leave when a completes; the single bus link serializes
	// them in issue order (a's successor edges in graph order: b first).
	approx(t, "b start", s.Slots[1].StartSec, dur+testHopSec+ser)
	approx(t, "c start", s.Slots[2].StartSec, dur+ser+testHopSec+ser)
	approx(t, "a→b transfer", s.Slots[1].StartSec-s.Slots[0].EndSec, testHopSec+ser)
	approx(t, "a→c transfer", s.Slots[2].StartSec-s.Slots[0].EndSec, ser+testHopSec+ser)

	// Determinism: the same mapping re-scheduled is bit-identical.
	again, err := ListSchedule(g, p, Mapping{0, 1, 2}, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Slots {
		if s.Slots[i] != again.Slots[i] {
			t.Fatalf("slot %d differs across runs: %+v vs %+v", i, s.Slots[i], again.Slots[i])
		}
	}
}

func TestMeshParallelLinksAvoidBusContention(t *testing.T) {
	g := fork(t)
	// 2×2 mesh: core 0 feeds core 1 (east link) and core 2 (south link) —
	// disjoint directed links, so both transfers stream concurrently.
	s, err := ListSchedule(g, meshPlat(4, 2), Mapping{0, 1, 2}, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dur := 100 / 200e6
	xfer := testHopSec + 50*arch.DefaultBitsPerCycle/testBwBps
	approx(t, "b start", s.Slots[1].StartSec, dur+xfer)
	approx(t, "c start", s.Slots[2].StartSec, dur+xfer)

	// The same workload on a bus is strictly slower: shared-link queuing.
	bus, err := ListSchedule(g, busPlat(4), Mapping{0, 1, 2}, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bus.MakespanSeconds() <= s.MakespanSeconds() {
		t.Fatalf("bus makespan %v not above mesh %v", bus.MakespanSeconds(), s.MakespanSeconds())
	}
}

func TestMultiHopLatency(t *testing.T) {
	g := chain(t)
	// 3×1 row mesh (width 3): core 0 -> core 2 is two hops.
	s, err := ListSchedule(g, meshPlat(3, 3), Mapping{0, 2, 2}, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dur := 100 / 200e6
	xfer2 := 2*testHopSec + 50*arch.DefaultBitsPerCycle/testBwBps
	approx(t, "t1 start", s.Slots[1].StartSec, dur+xfer2)
}

func TestValidateCatchesBillingCorruption(t *testing.T) {
	g := chain(t)
	s, err := ListSchedule(g, plat(2), Mapping{0, 1, 0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := s.Clone()
	bad.busyCycles[0]++
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted busy-cycle billing")
	}
	bad2 := s.Clone()
	bad2.busySec[1] *= 1.5
	if err := bad2.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted busy seconds")
	}
}

func TestCommSecondsMatchesBilling(t *testing.T) {
	g := chain(t)
	s, err := ListSchedule(g, plat(2), Mapping{0, 1, 0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (7) bills each cross-core edge to both endpoints, so the
	// communication share of the summed busy time,
	// Σ_c BusySeconds(c) − Σ_t cycles_t / f_mapped(t), is
	// Σ_cross-core edges cycles/f_producer + cycles/f_consumer.
	var taskSec float64
	for t2 := 0; t2 < g.N(); t2++ {
		taskSec += float64(g.Task(taskgraph.TaskID(t2)).Cycles) / s.freqHz[s.Mapping[t2]]
	}
	var busy float64
	for c := range s.busySec {
		busy += s.BusySeconds(c)
	}
	var comm float64
	for _, e := range g.Edges() {
		if from, to := s.Mapping[e.From], s.Mapping[e.To]; from != to && e.Cycles > 0 {
			comm += float64(e.Cycles)/s.freqHz[from] + float64(e.Cycles)/s.freqHz[to]
		}
	}
	approx(t, "comm share of busy time", busy-taskSec, comm)
	// Each cross-core edge of the chain delays its consumer by the transfer
	// at the slower endpoint's clock.
	crossed := 0
	for _, e := range g.Edges() {
		from, to := s.Mapping[e.From], s.Mapping[e.To]
		if from == to || e.Cycles == 0 {
			continue
		}
		crossed++
		approx(t, "transfer", s.Slots[e.To].StartSec-s.Slots[e.From].EndSec,
			float64(e.Cycles)/min(s.freqHz[from], s.freqHz[to]))
	}
	if crossed == 0 {
		t.Fatal("no cross-core transfer in the schedule")
	}
}
