package arch

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func meshPlatform(t *testing.T, cores, width int) *Platform {
	t.Helper()
	p, err := NewPlatform(cores, ARM7Levels3(), WithInterconnect(Interconnect{
		Topology:      TopologyMesh,
		BandwidthBps:  1e9,
		HopLatencySec: 1e-7,
		MeshWidth:     width,
	}))
	if err != nil {
		t.Fatalf("mesh platform: %v", err)
	}
	return p
}

func TestInterconnectNormalization(t *testing.T) {
	// Defaults: BitsPerCycle 32, MeshWidth ceil(sqrt(cores)).
	p := meshPlatform(t, 6, 0)
	ic := p.Interconnect()
	if ic == nil {
		t.Fatal("platform lost its interconnect")
	}
	if ic.BitsPerCycle != DefaultBitsPerCycle {
		t.Fatalf("BitsPerCycle = %v, want default %v", ic.BitsPerCycle, DefaultBitsPerCycle)
	}
	if ic.MeshWidth != 3 {
		t.Fatalf("MeshWidth = %d, want ceil(sqrt(6)) = 3", ic.MeshWidth)
	}
	if ic.meshHeight != 2 {
		t.Fatalf("meshHeight = %d, want 2", ic.meshHeight)
	}
	if got := ic.NumLinks(); got != 4*3*2 {
		t.Fatalf("NumLinks = %d, want 24", got)
	}

	// A platform without the option stays ideal.
	plain := MustNewPlatform(4, ARM7Levels3())
	if plain.Interconnect() != nil {
		t.Fatal("plain platform grew an interconnect")
	}

	// Bus fabric: exactly one link, every pair one hop.
	bus, err := NewPlatform(4, ARM7Levels3(), WithInterconnect(Interconnect{
		Topology:     TopologyBus,
		BandwidthBps: 1e8,
	}))
	if err != nil {
		t.Fatalf("bus platform: %v", err)
	}
	bic := bus.Interconnect()
	if bic.NumLinks() != 1 {
		t.Fatalf("bus NumLinks = %d, want 1", bic.NumLinks())
	}
	if bic.Hops(0, 3) != 1 || bic.Hops(3, 0) != 1 {
		t.Fatal("bus hops must be 1 for every pair")
	}
	if path := bic.PathLinks(2, 1, nil); len(path) != 1 || path[0] != 0 {
		t.Fatalf("bus path = %v, want [0]", path)
	}
}

func TestInterconnectValidation(t *testing.T) {
	cases := []struct {
		name string
		ic   Interconnect
		want string
	}{
		{"unknown topology", Interconnect{Topology: "ring", BandwidthBps: 1}, "unknown topology"},
		{"zero bandwidth", Interconnect{Topology: TopologyBus}, "bandwidth"},
		{"negative latency", Interconnect{Topology: TopologyBus, BandwidthBps: 1, HopLatencySec: -1}, "hop latency"},
		{"negative bits per cycle", Interconnect{Topology: TopologyBus, BandwidthBps: 1, BitsPerCycle: -4}, "bits per cycle"},
		{"mesh width on bus", Interconnect{Topology: TopologyBus, BandwidthBps: 1, MeshWidth: 2}, "mesh_width"},
		{"negative mesh width", Interconnect{Topology: TopologyMesh, BandwidthBps: 1, MeshWidth: -1}, "mesh width"},
	}
	for _, tc := range cases {
		_, err := NewPlatform(4, ARM7Levels3(), WithInterconnect(tc.ic))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestMeshHopsAndPaths(t *testing.T) {
	// 3-wide mesh over 6 cores:
	//   0 1 2
	//   3 4 5
	ic := meshPlatform(t, 6, 3).Interconnect()

	cases := []struct {
		a, b, hops int
	}{
		{0, 1, 1}, {1, 0, 1}, {0, 2, 2}, {0, 3, 1}, {0, 5, 3}, {5, 0, 3}, {2, 3, 3}, {4, 1, 1},
	}
	for _, tc := range cases {
		if got := ic.Hops(tc.a, tc.b); got != tc.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.hops)
		}
		path := ic.PathLinks(tc.a, tc.b, nil)
		if len(path) != tc.hops {
			t.Errorf("PathLinks(%d,%d) = %v (%d links), want %d", tc.a, tc.b, path, len(path), tc.hops)
		}
		for _, l := range path {
			if l < 0 || l >= ic.NumLinks() {
				t.Errorf("PathLinks(%d,%d) link %d outside [0,%d)", tc.a, tc.b, l, ic.NumLinks())
			}
		}
	}

	// XY routing is deterministic: 0 -> 5 goes east, east, then south.
	path := ic.PathLinks(0, 5, nil)
	want := []int{4*0 + 0, 4*1 + 0, 4*2 + 2}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathLinks(0,5) = %v, want %v", path, want)
		}
	}

	// Opposite directions never share a directed link.
	fwd := ic.PathLinks(0, 5, nil)
	rev := ic.PathLinks(5, 0, nil)
	for _, f := range fwd {
		for _, r := range rev {
			if f == r {
				t.Fatalf("forward and reverse paths share directed link %d", f)
			}
		}
	}
}

func TestInterconnectTiming(t *testing.T) {
	ic := meshPlatform(t, 4, 2).Interconnect()
	// 100 cycles at 32 bits/cycle over 1e9 bps with 1e-7 s/hop.
	bits := ic.MessageBits(100)
	if bits != 3200 {
		t.Fatalf("MessageBits(100) = %v, want 3200", bits)
	}
	got := ic.TransferSeconds(0, 3, 100) // 2 hops
	want := 2*1e-7 + 3200/1e9
	if diff := got - want; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("TransferSeconds = %v, want %v", got, want)
	}
	minWant := 1e-7 + float64(3200)/1e9
	if min := ic.MinTransferSeconds(100); min != minWant {
		t.Fatalf("MinTransferSeconds = %v, want %v", min, minWant)
	}
}

// TestRouteMatchesPathLinks holds the route table to the explicit XY walk
// of PathLinks for every ordered core pair, on a bus and on square meshes,
// meshes with full and partial last rows (and the default width), width 1
// and width = cores: the table's links in crossing order are PathLinks',
// their count is Hops, and its hop latency is float64(Hops)·HopLatencySec
// bit for bit.
func TestRouteMatchesPathLinks(t *testing.T) {
	fabrics := []struct {
		cores int
		ic    Interconnect
	}{
		{5, Interconnect{Topology: TopologyBus, BandwidthBps: 1e9, HopLatencySec: 3e-5}},
		{1, Interconnect{Topology: TopologyBus, BandwidthBps: 1e9}},
		{1, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9}},
		{6, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, MeshWidth: 3}},
		{7, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, MeshWidth: 3, HopLatencySec: 1e-7}},
		{9, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, HopLatencySec: 0.1}},
		{10, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, MeshWidth: 4, HopLatencySec: 1e-4}},
		{11, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, HopLatencySec: 5e-6}},
		{16, Interconnect{Topology: TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4}},
		{5, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, MeshWidth: 5, HopLatencySec: 7e-9}},
		{5, Interconnect{Topology: TopologyMesh, BandwidthBps: 1e9, MeshWidth: 1, HopLatencySec: 1.3e-3}},
		{64, Interconnect{Topology: TopologyMesh, BandwidthBps: 4e9, HopLatencySec: 1e-4}},
	}
	for _, f := range fabrics {
		p, err := NewPlatform(f.cores, ARM7Levels3(), WithInterconnect(f.ic))
		if err != nil {
			t.Fatalf("%d cores on %+v: %v", f.cores, f.ic, err)
		}
		ic, rt := p.Interconnect(), p.Routes()
		for a := 0; a < f.cores; a++ {
			for b := 0; b < f.cores; b++ {
				want := ic.PathLinks(a, b, nil)
				got := rt.Links(a, b, nil)
				if !slices.Equal(got, want) || len(got) != ic.Hops(a, b) {
					t.Fatalf("%d cores, width %d: route %d→%d = %v, PathLinks %v, Hops %d", f.cores, ic.MeshWidth, a, b, got, want, ic.Hops(a, b))
				}
				if got, want := rt.HopSec(a, b), float64(ic.Hops(a, b))*ic.HopLatencySec; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d cores, width %d: route %d→%d hop latency %v, want %v", f.cores, ic.MeshWidth, a, b, got, want)
				}
			}
		}
	}
	if MustNewPlatform(4, ARM7Levels3()).Routes() != nil {
		t.Fatal("the ideal fabric grew a route table")
	}
}

// TestReserve checks the reservation rule on both time types against the
// rule spelled out over PathLinks: the start waits for every link at its
// hop offset, every link then drains at its offset plus the serialization
// time, and the transfer arrives after all hops.
func TestReserve(t *testing.T) {
	p := meshPlatform(t, 7, 3)
	ic, rt := p.Interconnect(), p.Routes()
	busyF := make([]float64, ic.NumLinks())
	refF := make([]float64, ic.NumLinks())
	busyI := make([]int64, ic.NumLinks())
	refI := make([]int64, ic.NumLinks())
	now := 0
	for a := 0; a < 7; a++ {
		for b := 6; b >= 0; b-- {
			now += (a * b) % 3
			path := ic.PathLinks(a, b, nil)
			start := float64(now)
			for i, l := range path {
				start = max(start, refF[l]-float64(i)*0.5)
			}
			for i, l := range path {
				refF[l] = start + float64(i)*0.5 + 2
			}
			wantF := start + float64(len(path))*0.5 + 2
			if got := Reserve(rt, busyF, a, b, float64(now), 0.5, 2); got != wantF {
				t.Fatalf("float Reserve %d→%d = %v, want %v", a, b, got, wantF)
			}
			startI := int64(now)
			for i, l := range path {
				startI = max(startI, refI[l]-int64(i)*5)
			}
			for i, l := range path {
				refI[l] = startI + int64(i)*5 + 20
			}
			wantI := startI + int64(len(path))*5 + 20
			if got := Reserve(rt, busyI, a, b, int64(now), 5, 20); got != wantI {
				t.Fatalf("int Reserve %d→%d = %v, want %v", a, b, got, wantI)
			}
		}
	}
	for l := range refF {
		if busyF[l] != refF[l] || busyI[l] != refI[l] {
			t.Fatalf("link %d drains at %v / %v, want %v / %v", l, busyF[l], busyI[l], refF[l], refI[l])
		}
	}
}

// TestPlatformSizeLimits: core counts past MaxCores and meshes wider than
// the core count are refused.
func TestPlatformSizeLimits(t *testing.T) {
	if _, err := NewPlatform(MaxCores, ARM7Levels2()); err != nil {
		t.Fatalf("%d cores refused: %v", MaxCores, err)
	}
	if _, err := NewPlatform(MaxCores+1, ARM7Levels2()); err == nil {
		t.Errorf("%d cores accepted", MaxCores+1)
	}
	if _, err := NewPlatform(4194304, ARM7Levels2()); err == nil {
		t.Error("4194304 cores accepted")
	}
	arm7 := ProcType{Name: "arm7", Levels: ARM7Levels3()}
	if _, err := NewHeterogeneousPlatform([]ProcType{arm7}, make([]int, MaxCores+1)); err == nil {
		t.Errorf("%d heterogeneous cores accepted", MaxCores+1)
	}
	mesh := func(cores, width int) error {
		_, err := NewPlatform(cores, ARM7Levels3(), WithInterconnect(Interconnect{
			Topology: TopologyMesh, BandwidthBps: 1e9, MeshWidth: width,
		}))
		return err
	}
	if err := mesh(4, 4); err != nil {
		t.Errorf("mesh as wide as the core count refused: %v", err)
	}
	for _, width := range []int{5, 1000000000} {
		if err := mesh(4, width); err == nil || !strings.Contains(err.Error(), "mesh width") {
			t.Errorf("4 cores on a %d-wide mesh: err = %v, want a mesh width error", width, err)
		}
	}
}
