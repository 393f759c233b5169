// Package arch models the paper's MPSoC architecture (§II-A): processing
// cores with private caches and memory, fed by a clock tree generator that
// gives every core its own (frequency, Vdd) operating point, selected from a
// small table of voltage-scaling levels (Table I).
//
// The paper's platform is C identical ARM7TDMI cores sharing one Table-I
// level table; NewPlatform builds exactly that. The model generalizes to
// heterogeneous MPSoCs — per-core processor types, each with its own DVS
// table — via ProcType and NewHeterogeneousPlatform. Cores that share a
// level table are interchangeable for the task mapper, which is the symmetry
// the vscale enumeration exploits; SymmetryClasses exposes it.
//
// The dynamic power of the platform is eq. (5):
//
//	P = C_L · Σ_i α_i · f_i(s_i) · V_dd²(s_i)
//
// with α_i the activity (utilization) of core i under the chosen mapping.
package arch

import (
	"fmt"
	"math"
)

// ARM7Voltage is the corrected eq. (2) voltage law for the ARM7TDMI
// (from Pouwelse et al., MobiCom'01): V_dd in volts as a function of the
// operating frequency in MHz.
//
// As typeset in the paper, eq. (2) contains a stray division by the scaling
// coefficient s that contradicts the paper's own Table I; with f = f_nom/s
// substituted the law V(f) = 0.1667 + 4.1667·f/10³ reproduces every row of
// Table I (see DESIGN.md §5.1).
func ARM7Voltage(freqMHz float64) float64 {
	return 0.1667 + 4.1667*freqMHz/1000.0
}

// Level is one DVS operating point of a core.
type Level struct {
	S       int     // scaling coefficient; 1-based index into the level table
	FreqMHz float64 // operating frequency
	Vdd     float64 // supply voltage in volts
}

// FreqHz returns the level's frequency in Hz.
func (l Level) FreqHz() float64 { return l.FreqMHz * 1e6 }

// levelFromFreq builds a level at the given frequency using the ARM7
// voltage law.
func levelFromFreq(s int, freqMHz float64) Level {
	return Level{S: s, FreqMHz: freqMHz, Vdd: ARM7Voltage(freqMHz)}
}

// ARM7NominalMHz is the nominal (s=1) ARM7TDMI frequency of Table I.
const ARM7NominalMHz = 200.0

// ARM7Levels3 returns the paper's Table I: the 3-level ARM7TDMI DVS table
// used in all main experiments.
//
//	s=1: 200 MHz, 1.00 V
//	s=2: 100 MHz, 0.58 V
//	s=3: 66.7 MHz, 0.44 V
func ARM7Levels3() []Level {
	return []Level{
		levelFromFreq(1, 200),
		levelFromFreq(2, 100),
		levelFromFreq(3, 200.0/3.0),
	}
}

// ARM7Levels2 returns the 2-level variant used in Fig. 11
// (1 V−200 MHz and 0.58 V−100 MHz).
func ARM7Levels2() []Level {
	return []Level{
		levelFromFreq(1, 200),
		levelFromFreq(2, 100),
	}
}

// ARM7Levels4 returns the 4-level variant used in Fig. 11, which introduces
// the higher-performance 1.2 V−236 MHz point above the Table I levels.
func ARM7Levels4() []Level {
	return []Level{
		{S: 1, FreqMHz: 236, Vdd: 1.2},
		levelFromFreq(2, 200),
		levelFromFreq(3, 100),
		levelFromFreq(4, 200.0/3.0),
	}
}

// LevelsFromFrequencies builds a custom DVS table from operating
// frequencies (MHz, fastest first) using the ARM7 voltage law of eq. (2) —
// the way the paper's Fig. 11 constructs its 4-level variant. Frequencies
// must be positive and strictly decreasing.
func LevelsFromFrequencies(freqsMHz ...float64) ([]Level, error) {
	if len(freqsMHz) == 0 {
		return nil, fmt.Errorf("arch: no frequencies given")
	}
	out := make([]Level, len(freqsMHz))
	for i, f := range freqsMHz {
		if f <= 0 {
			return nil, fmt.Errorf("arch: non-positive frequency %v MHz", f)
		}
		if i > 0 && f >= freqsMHz[i-1] {
			return nil, fmt.Errorf("arch: frequencies must be strictly decreasing (%v after %v)", f, freqsMHz[i-1])
		}
		out[i] = levelFromFreq(i+1, f)
	}
	return out, nil
}

// ARM7LevelsFor returns the 2-, 3- or 4-level ARM7 table (Fig. 11 sweep).
func ARM7LevelsFor(n int) ([]Level, error) {
	switch n {
	case 2:
		return ARM7Levels2(), nil
	case 3:
		return ARM7Levels3(), nil
	case 4:
		return ARM7Levels4(), nil
	default:
		return nil, fmt.Errorf("arch: no ARM7 level table with %d levels", n)
	}
}

// Storage profile of one ARM7 processing core (§II-A): 8 kbit data cache,
// 16 kbit instruction cache, 512 kbit private memory.
const (
	ARM7DataCacheBits  = 8 * 1024
	ARM7InstrCacheBits = 16 * 1024
	ARM7MemoryBits     = 512 * 1024
)

// DefaultCL is the effective switched capacitance C_L of eq. (5), calibrated
// once so that the Exp:4 MPEG-2 design point of Table II lands at ≈4.25 mW
// (see EXPERIMENTS.md, "Calibration"). Held fixed across all experiments.
const DefaultCL = 47e-12 // farads

// DefaultBaselineBits is the per-core baseline storage footprint exposed to
// SEUs while the core participates in the application: both caches plus the
// resident working set of the 512 kbit private memory (≈8%). Calibrated once
// against Table II Γ magnitudes and held fixed (see EXPERIMENTS.md).
const DefaultBaselineBits = ARM7DataCacheBits + ARM7InstrCacheBits + 40*1024 // 64 kbit

// MaxCores caps a platform's core count: 16× the 64-core flagship, the
// largest platform the engine is exercised on. Every scheduler and
// simulator holds O(cores) state per platform (and a mesh O(cores) links),
// so the cap bounds what an untrusted platform spec can make the process
// allocate.
const MaxCores = 1024

// ProcType is one processor type of a (possibly heterogeneous) MPSoC: a
// named DVS level table. Two cores of the same type — or of distinct types
// with byte-identical tables — are interchangeable for the task mapper.
type ProcType struct {
	// Name identifies the type in specs and summaries; it does not
	// participate in physical identity (two types with equal tables are the
	// same hardware).
	Name string
	// Levels is the type's DVS table, fastest first, consecutive S from 1.
	Levels []Level
}

// Validate checks the type's level table (non-empty, consecutive S starting
// at 1, positive f and Vdd, strictly decreasing frequency).
func (t ProcType) Validate() error {
	return validateLevels(t.Levels)
}

func validateLevels(levels []Level) error {
	if len(levels) == 0 {
		return fmt.Errorf("empty DVS level table")
	}
	for i, l := range levels {
		if l.S != i+1 {
			return fmt.Errorf("level %d has S=%d, want consecutive S starting at 1", i, l.S)
		}
		if l.FreqMHz <= 0 || l.Vdd <= 0 {
			return fmt.Errorf("level s=%d has non-positive f or Vdd", l.S)
		}
		if i > 0 && levels[i-1].FreqMHz <= l.FreqMHz {
			return fmt.Errorf("levels must be sorted fastest-first: %v MHz after %v MHz (s=%d)",
				l.FreqMHz, levels[i-1].FreqMHz, l.S)
		}
	}
	return nil
}

// sameLevels reports physical equality of two DVS tables.
func sameLevels(a, b []Level) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Platform is a concrete MPSoC configuration: a set of processor types, a
// per-core type assignment, and the calibration constants of the power and
// exposure models. The paper's homogeneous C×Table-I platform is the
// single-type special case.
type Platform struct {
	cores        int
	types        []ProcType
	coreType     []int // per-core index into types
	classes      []int // per-core symmetry class (equal tables ⇒ equal class)
	numClasses   int
	nominalHz    float64       // fastest s=1 frequency across all cores
	cl           float64       // effective switched capacitance (F)
	baselineBits int64         // per-core baseline SEU-exposed storage
	icn          *Interconnect // nil = ideal dedicated point-to-point links
	routes       *Routes       // icn's route table; nil with icn
}

// Option customizes a Platform.
type Option func(*Platform)

// WithCL overrides the effective switched capacitance.
func WithCL(cl float64) Option { return func(p *Platform) { p.cl = cl } }

// WithBaselineBits overrides the per-core baseline exposed storage.
func WithBaselineBits(bits int64) Option { return func(p *Platform) { p.baselineBits = bits } }

// WithInterconnect models the platform's communication fabric explicitly
// instead of the default ideal point-to-point links; see Interconnect.
// The value is normalized (defaults resolved against the core count) and
// validated during platform construction.
func WithInterconnect(ic Interconnect) Option { return func(p *Platform) { p.icn = &ic } }

// NewPlatform builds a homogeneous platform: `cores` identical cores
// sharing one DVS table. Levels must be sorted fastest-first and use
// consecutive S starting at 1.
func NewPlatform(cores int, levels []Level, opts ...Option) (*Platform, error) {
	if err := checkCores(cores); err != nil {
		return nil, err
	}
	return NewHeterogeneousPlatform(
		[]ProcType{{Name: "core", Levels: levels}}, make([]int, cores), opts...)
}

// NewHeterogeneousPlatform builds a platform from a set of processor types
// and a per-core type assignment: core i is an instance of
// types[coreTypes[i]]. Every type's level table is validated like
// NewPlatform's; distinct types with identical tables are legal and treated
// as the same symmetry class.
func NewHeterogeneousPlatform(types []ProcType, coreTypes []int, opts ...Option) (*Platform, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("arch: no processor types given")
	}
	if err := checkCores(len(coreTypes)); err != nil {
		return nil, err
	}
	cp := make([]ProcType, len(types))
	for i, t := range types {
		if err := t.Validate(); err != nil {
			name := t.Name
			if name == "" {
				name = fmt.Sprintf("#%d", i)
			}
			return nil, fmt.Errorf("arch: processor type %s: %w", name, err)
		}
		cp[i] = ProcType{Name: t.Name, Levels: append([]Level(nil), t.Levels...)}
	}
	p := &Platform{
		cores:        len(coreTypes),
		types:        cp,
		coreType:     append([]int(nil), coreTypes...),
		cl:           DefaultCL,
		baselineBits: DefaultBaselineBits,
	}
	for c, ti := range p.coreType {
		if ti < 0 || ti >= len(cp) {
			return nil, fmt.Errorf("arch: core %d references processor type %d, have %d types", c, ti, len(cp))
		}
		if f := cp[ti].Levels[0].FreqHz(); f > p.nominalHz {
			p.nominalHz = f
		}
	}
	// Symmetry classes: cores with physically equal tables share a class;
	// class ids are assigned in first-occurrence order over the core list.
	p.classes = make([]int, p.cores)
	var reps []ProcType // one representative type per class
	for c, ti := range p.coreType {
		cls := -1
		for k, r := range reps {
			if sameLevels(r.Levels, cp[ti].Levels) {
				cls = k
				break
			}
		}
		if cls < 0 {
			cls = len(reps)
			reps = append(reps, cp[ti])
		}
		p.classes[c] = cls
	}
	p.numClasses = len(reps)
	for _, o := range opts {
		o(p)
	}
	if p.cl <= 0 {
		return nil, fmt.Errorf("arch: non-positive C_L %v", p.cl)
	}
	if p.baselineBits < 0 {
		return nil, fmt.Errorf("arch: negative baseline bits %d", p.baselineBits)
	}
	if p.icn != nil {
		ic, err := p.icn.normalized(p.cores)
		if err != nil {
			return nil, err
		}
		p.icn = ic
		p.routes = newRoutes(ic, p.cores)
	}
	return p, nil
}

// checkCores rejects a core count outside [1, MaxCores].
func checkCores(cores int) error {
	if cores < 1 || cores > MaxCores {
		return fmt.Errorf("arch: need 1 to %d cores, got %d", MaxCores, cores)
	}
	return nil
}

// MustNewPlatform is NewPlatform but panics on error; for fixtures.
func MustNewPlatform(cores int, levels []Level, opts ...Option) *Platform {
	p, err := NewPlatform(cores, levels, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Cores returns the number of processing cores.
func (p *Platform) Cores() int { return p.cores }

// Homogeneous reports whether every core shares one DVS table (the paper's
// platform model).
func (p *Platform) Homogeneous() bool { return p.numClasses == 1 }

// CoreNumLevels returns the number of DVS levels of core i's table.
func (p *Platform) CoreNumLevels(i int) int {
	return len(p.types[p.coreType[i]].Levels)
}

// LevelCounts returns the per-core DVS level counts — the mixed radix of the
// platform's scaling-combination space.
func (p *Platform) LevelCounts() []int {
	out := make([]int, p.cores)
	for i := range out {
		out[i] = p.CoreNumLevels(i)
	}
	return out
}

// SymmetryClasses returns the per-core symmetry class ids: two cores share a
// class exactly when their DVS tables are physically equal, making them
// interchangeable for the task mapper. Class ids are dense and assigned in
// first-occurrence order over the core list, so the encoding is canonical
// for a given core ordering.
func (p *Platform) SymmetryClasses() []int {
	return append([]int(nil), p.classes...)
}

// TypeName returns the processor-type name of core i.
func (p *Platform) TypeName(i int) string { return p.types[p.coreType[i]].Name }

// Levels returns a copy of core i's DVS level table.
func (p *Platform) Levels(i int) []Level {
	t := p.types[p.coreType[i]]
	return append([]Level(nil), t.Levels...)
}

// NominalHz is the platform's reference clock: the fastest (s=1) frequency
// across all cores. T_M cycle counts are expressed against it.
func (p *Platform) NominalHz() float64 { return p.nominalHz }

// CoreLevel returns core i's operating point for scaling coefficient s
// (1-based).
func (p *Platform) CoreLevel(i, s int) (Level, error) {
	if i < 0 || i >= p.cores {
		return Level{}, fmt.Errorf("arch: core %d outside [0,%d)", i, p.cores)
	}
	t := p.types[p.coreType[i]]
	if s < 1 || s > len(t.Levels) {
		return Level{}, fmt.Errorf("arch: core %d scaling coefficient %d outside [1,%d]", i, s, len(t.Levels))
	}
	return t.Levels[s-1], nil
}

// MustCoreLevel is CoreLevel but panics on out-of-range arguments.
func (p *Platform) MustCoreLevel(i, s int) Level {
	l, err := p.CoreLevel(i, s)
	if err != nil {
		panic(err)
	}
	return l
}

// CL returns the effective switched capacitance.
func (p *Platform) CL() float64 { return p.cl }

// BaselineBits returns the per-core baseline SEU-exposed storage in bits.
func (p *Platform) BaselineBits() int64 { return p.baselineBits }

// Interconnect returns the platform's normalized communication fabric, or
// nil for the default ideal (dedicated contention-free point-to-point
// links, where a cross-core edge costs its cycle count at the slower
// endpoint's clock). The returned value is shared and must not be mutated.
func (p *Platform) Interconnect() *Interconnect { return p.icn }

// Routes returns the route table of the platform's fabric, built once with
// the platform, or nil for the ideal fabric. It is shared and read-only.
func (p *Platform) Routes() *Routes { return p.routes }

// ValidScaling reports whether the per-core scaling vector has one in-range
// coefficient per core (each checked against that core's own table).
func (p *Platform) ValidScaling(scaling []int) error {
	if len(scaling) != p.cores {
		return fmt.Errorf("arch: scaling vector has %d entries, platform has %d cores", len(scaling), p.cores)
	}
	for i, s := range scaling {
		if n := p.CoreNumLevels(i); s < 1 || s > n {
			return fmt.Errorf("arch: core %d scaling %d outside [1,%d]", i, s, n)
		}
	}
	return nil
}

// DynamicPower evaluates eq. (5) in watts for the per-core scaling vector and
// per-core activity factors α_i ∈ [0,1] (utilization under the mapping).
// If util is nil, α_i = 1 for every core.
func (p *Platform) DynamicPower(scaling []int, util []float64) (float64, error) {
	if err := p.ValidScaling(scaling); err != nil {
		return 0, err
	}
	if util != nil && len(util) != p.cores {
		return 0, fmt.Errorf("arch: utilization vector has %d entries, want %d", len(util), p.cores)
	}
	if util == nil {
		// Nominal power (α ≡ 1) is reduced per (symmetry class, level) in
		// class-major catalogue order — the same fixed order the
		// metrics.Bounds histogram uses — so permutation-equal vectors
		// produce bit-identical power whatever core order they arrive in,
		// and the exploration engine's delta-maintained nominal matches
		// this full computation bit for bit. Each product is rounded before
		// it is added (an explicit float64), here and below, so no
		// architecture fuses the two.
		nclass := 0
		for _, k := range p.classes {
			if k+1 > nclass {
				nclass = k + 1
			}
		}
		rep := make([]int, nclass)
		cnt := make([][]int, nclass)
		for i := range rep {
			rep[i] = -1
		}
		for c, k := range p.classes {
			if rep[k] < 0 {
				rep[k] = c
				cnt[k] = make([]int, p.CoreNumLevels(c))
			}
			cnt[k][scaling[c]-1]++
		}
		var sum float64
		for k := 0; k < nclass; k++ {
			levels := p.types[p.coreType[rep[k]]].Levels
			for s, n := range cnt[k] {
				if n == 0 {
					continue
				}
				l := levels[s]
				sum += float64(float64(n) * (l.FreqHz() * l.Vdd * l.Vdd))
			}
		}
		return p.cl * sum, nil
	}
	var sum float64
	for i, s := range scaling {
		l := p.types[p.coreType[i]].Levels[s-1]
		alpha := 1.0
		if util != nil {
			alpha = util[i]
			if alpha < 0 || alpha > 1+1e-9 || math.IsNaN(alpha) {
				return 0, fmt.Errorf("arch: core %d utilization %v outside [0,1]", i, alpha)
			}
		}
		sum += float64(alpha * l.FreqHz() * l.Vdd * l.Vdd)
	}
	return p.cl * sum, nil
}

// MaxPowerScaling returns the all-nominal (s=1 everywhere) scaling vector.
func (p *Platform) MaxPowerScaling() []int {
	out := make([]int, p.cores)
	for i := range out {
		out[i] = 1
	}
	return out
}

// MinPowerScaling returns the all-slowest scaling vector (the starting point
// of the Fig. 5(a) enumeration): each core at the last level of its own
// table.
func (p *Platform) MinPowerScaling() []int {
	out := make([]int, p.cores)
	for i := range out {
		out[i] = p.CoreNumLevels(i)
	}
	return out
}
