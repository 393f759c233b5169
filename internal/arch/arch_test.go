package arch

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Table I of the paper: the corrected eq. (2) law must reproduce it.
func TestARM7VoltageTableI(t *testing.T) {
	cases := []struct {
		freqMHz float64
		wantV   float64
	}{
		{200, 1.00},
		{100, 0.58},
		{200.0 / 3.0, 0.44},
	}
	for _, c := range cases {
		got := ARM7Voltage(c.freqMHz)
		if !almostEqual(got, c.wantV, 0.005) {
			t.Errorf("ARM7Voltage(%.1f MHz) = %.4f V, want %.2f V", c.freqMHz, got, c.wantV)
		}
	}
}

func TestARM7LevelTables(t *testing.T) {
	l3 := ARM7Levels3()
	if len(l3) != 3 {
		t.Fatalf("3-level table has %d entries", len(l3))
	}
	for i, l := range l3 {
		if l.S != i+1 {
			t.Errorf("level %d has S=%d", i, l.S)
		}
	}
	if !almostEqual(l3[0].FreqHz(), 200e6, 1) {
		t.Errorf("s=1 FreqHz = %v", l3[0].FreqHz())
	}

	l2 := ARM7Levels2()
	if len(l2) != 2 || !almostEqual(l2[1].Vdd, 0.58, 0.005) {
		t.Errorf("2-level table wrong: %+v", l2)
	}

	l4 := ARM7Levels4()
	if len(l4) != 4 {
		t.Fatalf("4-level table has %d entries", len(l4))
	}
	// Fig. 11's added point: 1.2 V − 236 MHz, above nominal.
	if l4[0].FreqMHz != 236 || l4[0].Vdd != 1.2 {
		t.Errorf("4-level fastest point = %+v, want 236 MHz / 1.2 V", l4[0])
	}
	if !almostEqual(l4[1].Vdd, 1.0, 0.005) {
		t.Errorf("4-level s=2 should be the 200 MHz/1 V point, got %+v", l4[1])
	}

	for _, n := range []int{2, 3, 4} {
		if ls, err := ARM7LevelsFor(n); err != nil || len(ls) != n {
			t.Errorf("ARM7LevelsFor(%d) = %d levels, err %v", n, len(ls), err)
		}
	}
	if _, err := ARM7LevelsFor(5); err == nil {
		t.Error("ARM7LevelsFor(5) should fail")
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(0, ARM7Levels3()); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := NewPlatform(4, nil); err == nil {
		t.Error("empty level table accepted")
	}
	if _, err := NewPlatform(4, []Level{{S: 2, FreqMHz: 100, Vdd: 1}}); err == nil {
		t.Error("non-consecutive S accepted")
	}
	bad := []Level{{S: 1, FreqMHz: 100, Vdd: 1}, {S: 2, FreqMHz: 200, Vdd: 1}}
	if _, err := NewPlatform(4, bad); err == nil {
		t.Error("unsorted levels accepted")
	}
	if _, err := NewPlatform(4, ARM7Levels3(), WithCL(-1)); err == nil {
		t.Error("negative CL accepted")
	}
	if _, err := NewPlatform(4, ARM7Levels3(), WithBaselineBits(-1)); err == nil {
		t.Error("negative baseline accepted")
	}
	p, err := NewPlatform(4, ARM7Levels3(), WithCL(10e-12), WithBaselineBits(1000))
	if err != nil {
		t.Fatal(err)
	}
	if p.CL() != 10e-12 || p.BaselineBits() != 1000 {
		t.Error("options not applied")
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := MustNewPlatform(4, ARM7Levels3())
	if p.Cores() != 4 || p.CoreNumLevels(0) != 3 {
		t.Fatalf("Cores=%d CoreNumLevels(0)=%d", p.Cores(), p.CoreNumLevels(0))
	}
	if l := p.MustCoreLevel(0, 2); !almostEqual(l.Vdd, 0.58, 0.005) {
		t.Errorf("CoreLevel(0, 2).Vdd = %v", l.Vdd)
	}
	if _, err := p.CoreLevel(0, 0); err == nil {
		t.Error("CoreLevel(0, 0) accepted")
	}
	if _, err := p.CoreLevel(0, 4); err == nil {
		t.Error("CoreLevel(0, 4) accepted")
	}
	if got := p.MaxPowerScaling(); len(got) != 4 || got[0] != 1 {
		t.Errorf("MaxPowerScaling = %v", got)
	}
	if got := p.MinPowerScaling(); len(got) != 4 || got[0] != 3 {
		t.Errorf("MinPowerScaling = %v", got)
	}
	levels := p.Levels(0)
	levels[0].FreqMHz = 0 // must not corrupt the platform
	if p.MustCoreLevel(0, 1).FreqMHz != 200 {
		t.Error("Levels() leaked internal state")
	}
}

func TestValidScaling(t *testing.T) {
	p := MustNewPlatform(3, ARM7Levels3())
	if err := p.ValidScaling([]int{1, 2, 3}); err != nil {
		t.Errorf("valid scaling rejected: %v", err)
	}
	for _, bad := range [][]int{{1, 2}, {1, 2, 3, 1}, {0, 1, 1}, {1, 4, 1}} {
		if err := p.ValidScaling(bad); err == nil {
			t.Errorf("scaling %v accepted", bad)
		}
	}
}

func TestDynamicPowerEq5(t *testing.T) {
	// Hand-computed eq. (5) with CL = 47 pF, full utilization.
	p := MustNewPlatform(4, ARM7Levels3(), WithCL(47e-12))
	scaling := []int{2, 2, 3, 2}
	var want float64
	for _, s := range scaling {
		l := p.MustCoreLevel(0, s)
		want += l.FreqHz() * l.Vdd * l.Vdd
	}
	want *= 47e-12
	got, err := p.DynamicPower(scaling, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("DynamicPower = %v, want %v", got, want)
	}
	// Magnitude check: the Table II designs sit in the single-digit mW range.
	if got < 1e-3 || got > 20e-3 {
		t.Errorf("power %v W outside plausible Table II band", got)
	}

	// Utilization scales power linearly per core.
	half := []float64{0.5, 0.5, 0.5, 0.5}
	gotHalf, err := p.DynamicPower(scaling, half)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(gotHalf, got/2, 1e-12) {
		t.Errorf("half utilization power = %v, want %v", gotHalf, got/2)
	}
}

func TestDynamicPowerMonotoneInScaling(t *testing.T) {
	// Scaling down any core must strictly reduce power (f and V both drop).
	p := MustNewPlatform(4, ARM7Levels3())
	base := []int{1, 1, 1, 1}
	pw := func(s []int) float64 {
		v, err := p.DynamicPower(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	prev := pw(base)
	for s := 2; s <= 3; s++ {
		cur := pw([]int{s, 1, 1, 1})
		if cur >= prev {
			t.Errorf("power not monotone: s=%d gives %v >= %v", s, cur, prev)
		}
		prev = cur
	}
}

func TestDynamicPowerErrors(t *testing.T) {
	p := MustNewPlatform(2, ARM7Levels3())
	if _, err := p.DynamicPower([]int{1}, nil); err == nil {
		t.Error("short scaling accepted")
	}
	if _, err := p.DynamicPower([]int{1, 2}, []float64{0.5}); err == nil {
		t.Error("short util accepted")
	}
	if _, err := p.DynamicPower([]int{1, 2}, []float64{0.5, 1.5}); err == nil {
		t.Error("util > 1 accepted")
	}
	if _, err := p.DynamicPower([]int{1, 2}, []float64{-0.1, 0.5}); err == nil {
		t.Error("negative util accepted")
	}
}

func TestMustLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCoreLevel(0, 99) should panic")
		}
	}()
	MustNewPlatform(2, ARM7Levels3()).MustCoreLevel(0, 99)
}

func TestLevelsFromFrequencies(t *testing.T) {
	levels, err := LevelsFromFrequencies(236, 200, 100, 200.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 4 {
		t.Fatalf("got %d levels", len(levels))
	}
	// Consecutive S from 1 and strictly decreasing frequency.
	for i, l := range levels {
		if l.S != i+1 {
			t.Errorf("level %d has S=%d", i, l.S)
		}
	}
	// The law reproduces Table I at its rows.
	if !almostEqual(levels[1].Vdd, 1.0, 0.005) || !almostEqual(levels[2].Vdd, 0.58, 0.005) {
		t.Errorf("voltages off: %+v", levels)
	}
	// A platform accepts the custom table.
	if _, err := NewPlatform(4, levels); err != nil {
		t.Errorf("custom table rejected: %v", err)
	}

	if _, err := LevelsFromFrequencies(); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := LevelsFromFrequencies(100, 200); err == nil {
		t.Error("increasing frequencies accepted")
	}
	if _, err := LevelsFromFrequencies(100, 100); err == nil {
		t.Error("equal frequencies accepted")
	}
	if _, err := LevelsFromFrequencies(100, -5); err == nil {
		t.Error("negative frequency accepted")
	}
}

// heteroTestPlatform builds a 4-core mixed platform: two ARM7 Table-I cores,
// one 2-level core and one 4-level core.
func heteroTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewHeterogeneousPlatform(
		[]ProcType{
			{Name: "arm7x3", Levels: ARM7Levels3()},
			{Name: "arm7x2", Levels: ARM7Levels2()},
			{Name: "arm7x4", Levels: ARM7Levels4()},
		},
		[]int{0, 0, 1, 2})
	if err != nil {
		t.Fatalf("NewHeterogeneousPlatform: %v", err)
	}
	return p
}

func TestHeterogeneousPlatform(t *testing.T) {
	p := heteroTestPlatform(t)
	if p.Cores() != 4 || p.Homogeneous() {
		t.Fatalf("Cores=%d Homogeneous=%v", p.Cores(), p.Homogeneous())
	}
	if got := p.LevelCounts(); got[0] != 3 || got[1] != 3 || got[2] != 2 || got[3] != 4 {
		t.Errorf("LevelCounts = %v", got)
	}
	if got := p.SymmetryClasses(); got[0] != 0 || got[1] != 0 || got[2] != 1 || got[3] != 2 {
		t.Errorf("SymmetryClasses = %v", got)
	}
	if got := p.MinPowerScaling(); got[0] != 3 || got[2] != 2 || got[3] != 4 {
		t.Errorf("MinPowerScaling = %v", got)
	}
	// Per-core levels are independent tables.
	if f := p.MustCoreLevel(3, 1).FreqMHz; f != 236 {
		t.Errorf("core 3 s=1 freq = %v, want 236", f)
	}
	if f := p.MustCoreLevel(0, 1).FreqMHz; f != 200 {
		t.Errorf("core 0 s=1 freq = %v, want 200", f)
	}
	if p.NominalHz() != 236e6 {
		t.Errorf("NominalHz = %v, want 236e6", p.NominalHz())
	}
	// Scaling validity is checked against each core's own table.
	if err := p.ValidScaling([]int{3, 1, 2, 4}); err != nil {
		t.Errorf("valid scaling rejected: %v", err)
	}
	if err := p.ValidScaling([]int{1, 1, 3, 1}); err == nil {
		t.Error("core 2 scaling 3 accepted on a 2-level table")
	}
}

func TestHeterogeneousDynamicPower(t *testing.T) {
	p := heteroTestPlatform(t)
	s := []int{1, 2, 1, 2}
	got, err := p.DynamicPower(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for c, sc := range s {
		l := p.MustCoreLevel(c, sc)
		want += l.FreqHz() * l.Vdd * l.Vdd
	}
	want *= p.CL()
	if !almostEqual(got, want, 1e-18) {
		t.Errorf("DynamicPower = %v, want %v", got, want)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	arm7 := ProcType{Name: "arm7", Levels: ARM7Levels3()}
	if _, err := NewHeterogeneousPlatform(nil, []int{0}); err == nil {
		t.Error("no types accepted")
	}
	if _, err := NewHeterogeneousPlatform([]ProcType{arm7}, nil); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewHeterogeneousPlatform([]ProcType{arm7}, []int{0, 1}); err == nil {
		t.Error("out-of-range type index accepted")
	}
	if _, err := NewHeterogeneousPlatform([]ProcType{{Name: "bad"}}, []int{0}); err == nil {
		t.Error("empty level table accepted")
	}
	// Distinct type names with identical tables share one symmetry class.
	p, err := NewHeterogeneousPlatform(
		[]ProcType{arm7, {Name: "arm7-copy", Levels: ARM7Levels3()}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Homogeneous() {
		t.Errorf("identical tables should collapse to one class: %v", p.SymmetryClasses())
	}
	if p.CoreNumLevels(0) != 3 {
		t.Errorf("CoreNumLevels(0) = %d", p.CoreNumLevels(0))
	}
}
