package taskgraph

import (
	"fmt"
	"strings"
	"testing"

	"seadopt/internal/registers"
)

func testInventory() *registers.Inventory {
	inv := registers.NewInventory()
	for _, id := range []string{"a", "b", "c", "d"} {
		inv.MustAdd(id, 1024)
	}
	return inv
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("g", testInventory())
	t0 := b.AddTask("alpha", 100, "a")
	t1 := b.AddTask("beta", 200, "a", "b")
	t2 := b.AddTask("gamma", 300, "c")
	b.AddEdge(t0, t1, 10)
	b.AddEdge(t0, t2, 20)
	b.AddEdge(t1, t2, 30)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if g.Name() != "g" {
		t.Errorf("Name = %q", g.Name())
	}
	if got := g.Task(t1).Cycles; got != 200 {
		t.Errorf("task cost = %d, want 200", got)
	}
	if cost, ok := g.EdgeCost(t0, t2); !ok || cost != 20 {
		t.Errorf("EdgeCost(t0,t2) = %d,%v", cost, ok)
	}
	if _, ok := g.EdgeCost(t2, t0); ok {
		t.Error("reverse edge should not exist")
	}
	if got := g.TotalComputeCycles(); got != 600 {
		t.Errorf("TotalComputeCycles = %d, want 600", got)
	}
	if got := g.TotalCommCycles(); got != 60 {
		t.Errorf("TotalCommCycles = %d, want 60", got)
	}
	roots, leaves := g.Roots(), g.Leaves()
	if len(roots) != 1 || roots[0] != t0 {
		t.Errorf("Roots = %v", roots)
	}
	if len(leaves) != 1 || leaves[0] != t2 {
		t.Errorf("Leaves = %v", leaves)
	}
	if len(g.Edges()) != 3 {
		t.Errorf("Edges() returned %d edges", len(g.Edges()))
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"nil inventory", func() (*Graph, error) {
			b := NewBuilder("g", nil)
			b.AddTask("x", 1)
			return b.Build()
		}},
		{"empty graph", func() (*Graph, error) {
			return NewBuilder("g", testInventory()).Build()
		}},
		{"empty task name", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			b.AddTask("", 1)
			return b.Build()
		}},
		{"non-positive cost", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			b.AddTask("x", 0)
			return b.Build()
		}},
		{"unknown register", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			b.AddTask("x", 1, "nonexistent")
			return b.Build()
		}},
		{"self edge", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			x := b.AddTask("x", 1)
			b.AddEdge(x, x, 1)
			return b.Build()
		}},
		{"edge to undefined task", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			x := b.AddTask("x", 1)
			b.AddEdge(x, TaskID(99), 1)
			return b.Build()
		}},
		{"negative edge cost", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			x := b.AddTask("x", 1)
			y := b.AddTask("y", 1)
			b.AddEdge(x, y, -1)
			return b.Build()
		}},
		{"duplicate edge", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			x := b.AddTask("x", 1)
			y := b.AddTask("y", 1)
			b.AddEdge(x, y, 1)
			b.AddEdge(x, y, 2)
			return b.Build()
		}},
		{"cycle", func() (*Graph, error) {
			b := NewBuilder("g", testInventory())
			x := b.AddTask("x", 1)
			y := b.AddTask("y", 1)
			z := b.AddTask("z", 1)
			b.AddEdge(x, y, 1)
			b.AddEdge(y, z, 1)
			b.AddEdge(z, x, 1)
			return b.Build()
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", tc.name)
		}
	}
}

// TestBuilderSizeCaps: a graph at each size cap builds, and one task, edge
// or register over it is refused with an error naming the cap.
func TestBuilderSizeCaps(t *testing.T) {
	// build makes a graph of tasks tasks over regs registers. From 513
	// tasks on, each of the first 256 tasks feeds each of the next 256
	// (256·256 = MaxEdges edges), and extraEdge adds one edge 0 -> 512.
	build := func(tasks, regs int, extraEdge bool) error {
		inv := registers.NewInventory()
		for i := 0; i < regs; i++ {
			inv.MustAdd(fmt.Sprintf("r%d", i), 1)
		}
		b := NewBuilder("caps", inv)
		for i := 0; i < tasks; i++ {
			b.AddTask(fmt.Sprintf("t%d", i), 1)
		}
		if tasks >= 513 {
			for from := 0; from < 256; from++ {
				for to := 256; to < 512; to++ {
					b.AddEdge(TaskID(from), TaskID(to), 1)
				}
			}
			if extraEdge {
				b.AddEdge(0, 512, 1)
			}
		}
		_, err := b.Build()
		return err
	}
	cases := []struct {
		name             string
		tasks, registers int
		extraEdge        bool
		wantErr          string
	}{
		{"tasks at cap", MaxTasks, 0, false, ""},
		{"tasks over cap", MaxTasks + 1, 0, false, fmt.Sprint(MaxTasks)},
		{"edges at cap", 513, 0, false, ""},
		{"edges over cap", 513, 0, true, fmt.Sprint(MaxEdges)},
		{"registers at cap", 1, MaxRegisters, false, ""},
		{"registers over cap", 1, MaxRegisters + 1, false, fmt.Sprint(MaxRegisters)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := build(tc.tasks, tc.registers, tc.extraEdge)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), "cap of "+tc.wantErr)):
				t.Fatalf("error %v, want one naming the cap of %s", err, tc.wantErr)
			}
		})
	}
}

func TestTopoOrderValid(t *testing.T) {
	g := MPEG2()
	order := g.TopoOrder()
	if len(order) != g.N() {
		t.Fatalf("topo order has %d tasks, want %d", len(order), g.N())
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestBLevelsAndCriticalPath(t *testing.T) {
	//      t0(10) --5--> t1(20) --5--> t3(40)
	//          \--1--> t2(30) --1--/
	b := NewBuilder("g", testInventory())
	t0 := b.AddTask("t0", 10)
	t1 := b.AddTask("t1", 20)
	t2 := b.AddTask("t2", 30)
	t3 := b.AddTask("t3", 40)
	b.AddEdge(t0, t1, 5)
	b.AddEdge(t0, t2, 1)
	b.AddEdge(t1, t3, 5)
	b.AddEdge(t2, t3, 1)
	g := b.MustBuild()

	bl := g.BLevels()
	if bl[t3] != 40 {
		t.Errorf("blevel(t3) = %d, want 40", bl[t3])
	}
	if bl[t2] != 71 { // 30 + 1 + 40
		t.Errorf("blevel(t2) = %d, want 71", bl[t2])
	}
	if bl[t1] != 65 { // 20 + 5 + 40
		t.Errorf("blevel(t1) = %d, want 65", bl[t1])
	}
	if bl[t0] != 82 { // 10 + max(5+65, 1+71) = 10 + 72
		t.Errorf("blevel(t0) = %d, want 82", bl[t0])
	}
	if got := g.CriticalPathCycles(); got != 82 {
		t.Errorf("critical path = %d, want 82", got)
	}
}

func TestMPEG2MatchesPaper(t *testing.T) {
	g := MPEG2()
	if g.N() != 11 {
		t.Fatalf("MPEG2 has %d tasks, want 11", g.N())
	}
	wantUnits := []int64{10, 15, 16, 31, 25, 39, 63, 61, 48, 41, 21}
	for i, u := range wantUnits {
		if got := g.Task(TaskID(i)).Cycles; got != u*MPEG2CycleUnit {
			t.Errorf("task %d cost = %d, want %d", i, got, u*MPEG2CycleUnit)
		}
	}
	if len(g.Edges()) != 11 {
		t.Errorf("MPEG2 has %d edges, want 11", len(g.Edges()))
	}
	// §III sharing facts. Tasks are 0-indexed: t5 is index 4.
	inv := g.Inventory()
	t5 := g.Task(4).Registers
	t6 := g.Task(5).Registers
	t7 := g.Task(6).Registers
	t8 := g.Task(7).Registers
	if got := inv.SharedBits(t5, t6); got != 6554 {
		t.Errorf("t5/t6 shared bits = %d, want 6554 (≈6.4 kbit)", got)
	}
	tri := registers.Intersect(registers.Intersect(t6, t7), t8)
	if got := inv.SetBits(tri); got != 8*Kb {
		t.Errorf("t6/t7/t8 shared bits = %d, want %d (8 kbit)", got, 8*Kb)
	}
	// Duplication across the {t5,t6} | {t7,t8} cut: registers used on both
	// sides get a copy on each core. Must be ≈14.4 kbit (6.4 + 8).
	left := g.UnionRegisters([]TaskID{4, 5})
	right := g.UnionRegisters([]TaskID{6, 7})
	if got := inv.SharedBits(left, right); got != 6554+8*Kb {
		t.Errorf("cut duplication = %d bits, want %d (≈14.4 kbit)", got, 6554+8*Kb)
	}
	// Whole-app register usage on one core should sit near the Table II band.
	all := g.UnionRegisters(g.TopoOrder())
	bits := inv.SetBits(all)
	if bits < 70*Kb || bits > 130*Kb {
		t.Errorf("single-core register usage = %d bits (%.1f kbit), want 70-130 kbit", bits, float64(bits)/Kb)
	}
}

func TestFig8MatchesPaper(t *testing.T) {
	g := Fig8()
	if g.N() != 6 {
		t.Fatalf("Fig8 has %d tasks, want 6", g.N())
	}
	wantUnits := []int64{5, 4, 4, 5, 6, 4}
	for i, u := range wantUnits {
		if got := g.Task(TaskID(i)).Cycles; got != u*Fig8CycleUnit {
			t.Errorf("t%d cost = %d, want %d", i+1, got, u*Fig8CycleUnit)
		}
	}
	inv := g.Inventory()
	wantSizes := map[string]int64{
		"r1": 4096, "r2": 2048, "r3": 2048, "r4": 5120, "r5": 4096,
		"r6": 2048, "r7": 2048, "r8": 4096, "r9": 2048,
	}
	for id, bits := range wantSizes {
		if got := inv.Bits(id); got != bits {
			t.Errorf("register %s = %d bits, want %d", id, got, bits)
		}
	}
	// Register table of Fig. 8(c).
	wantRegs := [][]string{
		{"r1", "r2", "r3"},
		{"r2", "r4", "r5", "r6"},
		{"r4", "r5", "r6"},
		{"r5", "r6", "r7"},
		{"r6", "r7", "r8"},
		{"r7", "r8", "r9"},
	}
	for i, regs := range wantRegs {
		if !g.Task(TaskID(i)).Registers.Equal(registers.NewSet(regs...)) {
			t.Errorf("t%d registers = %v, want %v", i+1, g.Task(TaskID(i)).Registers.IDs(), regs)
		}
	}
	// Narrative check: t1's dependents are exactly {t2, t3}.
	succ := g.Succs(0)
	if len(succ) != 2 {
		t.Fatalf("t1 has %d dependents, want 2", len(succ))
	}
	got := map[TaskID]bool{succ[0].To: true, succ[1].To: true}
	if !got[1] || !got[2] {
		t.Errorf("t1 dependents = %v, want {t2,t3}", succ)
	}
}

func TestUnionRegisters(t *testing.T) {
	g := Fig8()
	u := g.UnionRegisters([]TaskID{0, 1}) // t1 ∪ t2 = r1..r6
	want := registers.NewSet("r1", "r2", "r3", "r4", "r5", "r6")
	if !u.Equal(want) {
		t.Errorf("union = %v, want %v", u.IDs(), want.IDs())
	}
	if got := g.Inventory().SetBits(u); got != 4096+2048+2048+5120+4096+2048 {
		t.Errorf("union bits = %d", got)
	}
}
