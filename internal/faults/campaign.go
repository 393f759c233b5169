package faults

import (
	"fmt"
	"math/rand"
)

// ExposureItem describes one block of SEU-exposed storage: Bits of state on
// core Core that hold live data for Cycles clock cycles. The cycle-level
// simulator flattens its register liveness trace (plus the per-core baseline
// storage footprint) into a list of these items.
type ExposureItem struct {
	Core   int
	Label  string // register ID, or "baseline" for the core's resident storage
	Bits   int64
	Cycles int64 // total live cycles
}

// BitCycles returns the item's exposure in bit·cycles.
func (e ExposureItem) BitCycles() float64 { return float64(e.Bits) * float64(e.Cycles) }

// Campaign is a fault-injection campaign: a set of exposure items, a
// per-core SEU rate, and the per-core register-space size and time horizon
// that define the raw injection domain.
type Campaign struct {
	// Items lists the live storage windows hit-testing is performed on.
	Items []ExposureItem
	// Lambda is the per-core SEU rate in SEU/bit/cycle (λ_i of eq. 3),
	// indexed by core. Cores absent from Items may have zero entries.
	Lambda []float64
	// SpaceBits is the total register-space size per core (live or not);
	// used to report the raw injection count the way the paper's SystemC
	// tool does. Optional: zero entries fall back to the live space.
	SpaceBits []int64
	// HorizonCycles is the campaign duration per core in cycles. Optional
	// with the same fallback.
	HorizonCycles []int64
}

// CoreResult aggregates one core's campaign outcome.
type CoreResult struct {
	Core        int
	Injected    int64   // SEUs injected into the core's register space
	Experienced int64   // SEUs that struck live state
	Expected    float64 // analytic expectation λ_i · Σ exposure
}

// Result is the outcome of a fault-injection campaign.
type Result struct {
	PerCore []CoreResult
	// PerLabel counts experienced SEUs by exposure label, for attribution.
	PerLabel map[string]int64
}

// TotalExperienced returns Γ as measured by the campaign: the number of
// SEUs that struck live register state.
func (r *Result) TotalExperienced() int64 {
	var n int64
	for _, c := range r.PerCore {
		n += c.Experienced
	}
	return n
}

// TotalExpected returns the analytic expectation of TotalExperienced.
func (r *Result) TotalExpected() float64 {
	var v float64
	for _, c := range r.PerCore {
		v += c.Expected
	}
	return v
}

// Validate reports structural problems with the campaign definition.
func (c *Campaign) Validate() error {
	if len(c.Items) == 0 {
		return fmt.Errorf("faults: campaign has no exposure items")
	}
	maxCore := 0
	for _, it := range c.Items {
		if it.Core < 0 {
			return fmt.Errorf("faults: item %q has negative core %d", it.Label, it.Core)
		}
		if it.Bits < 0 || it.Cycles < 0 {
			return fmt.Errorf("faults: item %q has negative exposure (%d bits, %d cycles)", it.Label, it.Bits, it.Cycles)
		}
		if it.Core > maxCore {
			maxCore = it.Core
		}
	}
	if len(c.Lambda) <= maxCore {
		return fmt.Errorf("faults: lambda covers %d cores, items reference core %d", len(c.Lambda), maxCore)
	}
	for i, l := range c.Lambda {
		if l < 0 {
			return fmt.Errorf("faults: negative λ for core %d", i)
		}
	}
	return nil
}

// Run executes the campaign with the given random source.
//
// Per (core, item), the number of experienced SEUs is Poisson with mean
// λ_core · bits · cycles — the superposition property makes per-item
// sampling exact. The per-core raw injection count is Poisson with mean
// λ_core · SpaceBits · HorizonCycles, but never less than the live hits
// already drawn (an experienced SEU is by definition also injected).
func (c *Campaign) Run(rng *rand.Rand) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cores := len(c.Lambda)
	perCore := make([]CoreResult, cores)
	for i := range perCore {
		perCore[i].Core = i
	}
	res := &Result{PerLabel: make(map[string]int64)}

	liveExposure := make([]float64, cores)
	for _, it := range c.Items {
		lam := c.Lambda[it.Core]
		mean := lam * it.BitCycles()
		hits := Poisson(rng, mean)
		perCore[it.Core].Experienced += hits
		perCore[it.Core].Expected += mean
		liveExposure[it.Core] += it.BitCycles()
		if hits > 0 {
			res.PerLabel[it.Label] += hits
		}
	}
	for i := range perCore {
		space := liveExposure[i]
		if i < len(c.SpaceBits) && i < len(c.HorizonCycles) && c.SpaceBits[i] > 0 && c.HorizonCycles[i] > 0 {
			space = float64(c.SpaceBits[i]) * float64(c.HorizonCycles[i])
		}
		extraMean := c.Lambda[i]*space - perCore[i].Expected
		if extraMean < 0 {
			extraMean = 0
		}
		perCore[i].Injected = perCore[i].Experienced + Poisson(rng, extraMean)
	}
	res.PerCore = perCore
	return res, nil
}

// RunRepeated executes the campaign n times with distinct deterministic
// streams derived from seed and returns the per-run experienced totals plus
// their mean. The paper's tables report single fault-injection measurements;
// repeated runs expose the Monte-Carlo spread.
func (c *Campaign) RunRepeated(seed int64, n int) (totals []int64, mean float64, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("faults: non-positive repetition count %d", n)
	}
	totals = make([]int64, n)
	var sum float64
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*0x9E3779B9))
		r, runErr := c.Run(rng)
		if runErr != nil {
			return nil, 0, runErr
		}
		totals[i] = r.TotalExperienced()
		sum += float64(totals[i])
	}
	return totals, sum / float64(n), nil
}
