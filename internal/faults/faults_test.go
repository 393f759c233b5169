package faults

import (
	"math"
	"math/rand"
	"testing"
)

func TestSERModelCalibration(t *testing.T) {
	m := NewSERModel(DefaultSER)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// At the reference clock and nominal voltage the per-cycle rate is the
	// quoted 1e-9.
	if got := m.RatePerCycle(1.0, DefaultSERRefHz); math.Abs(got-DefaultSER) > 1e-18 {
		t.Errorf("λ(1.0V)@ref = %v per cycle, want %v", got, DefaultSER)
	}
	// The paper's anchor: 1 SEU per 10 ms for a 1 kbit register bank.
	perBank := m.RatePerSec(1.0) * 1024 * 0.010
	if math.Abs(perBank-1.024) > 0.05 {
		t.Errorf("1kbit bank gets %v SEUs per 10ms, want ≈1", perBank)
	}
	// Observation 3 anchor: λ(0.58)/λ(1.0) = 1.25.
	ratio := m.RatePerSec(0.58) / m.RatePerSec(1.0)
	if math.Abs(ratio-1.25) > 1e-9 {
		t.Errorf("λ(0.58)/λ(1.0) = %v, want 1.25", ratio)
	}
	// Monotone: lower voltage, higher rate.
	if m.RatePerSec(0.44) <= m.RatePerSec(0.58) || m.RatePerSec(0.58) <= m.RatePerSec(1.0) {
		t.Error("SER not monotone decreasing in voltage")
	}
	// Above-nominal voltage gives below-base rate (Fig. 11's 1.2 V level).
	if m.RatePerSec(1.2) >= m.RatePerSec(1.0) {
		t.Error("SER at 1.2V should be below base rate")
	}
	// Halving the clock doubles the per-cycle rate (same per-second flux).
	a := m.RatePerCycle(1.0, 200e6)
	b := m.RatePerCycle(1.0, 100e6)
	if math.Abs(b/a-2.0) > 1e-9 {
		t.Errorf("per-cycle rate ratio at half clock = %v, want 2", b/a)
	}
	if m.RatePerCycle(1.0, 0) != 0 {
		t.Error("zero frequency should yield zero per-cycle rate")
	}
}

func TestSERModelValidate(t *testing.T) {
	bad := []SERModel{
		{BaseRatePerCycle: -1e-9, RefFreqHz: 1e8, NominalV: 1, K: 1},
		{BaseRatePerCycle: 1e-9, RefFreqHz: 0, NominalV: 1, K: 1},
		{BaseRatePerCycle: 1e-9, RefFreqHz: 1e8, NominalV: 0, K: 1},
		{BaseRatePerCycle: 1e-9, RefFreqHz: 1e8, NominalV: 1, K: -1},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("model %d validated, want error", i)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for _, mean := range []float64{0.5, 3, 25, 80, 1000, 2.5e5} {
		const n = 4000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(Poisson(rng, mean))
			sum += v
			sumSq += v * v
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		// Mean and variance both equal mean; allow 5 standard errors.
		tol := 5 * math.Sqrt(mean/n)
		if math.Abs(gotMean-mean) > tol {
			t.Errorf("mean %v: sample mean %v outside ±%v", mean, gotMean, tol)
		}
		if math.Abs(gotVar-mean) > mean*0.15+1 {
			t.Errorf("mean %v: sample variance %v, want ≈%v", mean, gotVar, mean)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Poisson(rng, 0) != 0 || Poisson(rng, -5) != 0 || Poisson(rng, math.NaN()) != 0 {
		t.Error("degenerate means should yield 0")
	}
	for i := 0; i < 1000; i++ {
		if Poisson(rng, 100) < 0 {
			t.Fatal("negative Poisson variate")
		}
	}
}

func simpleCampaign() *Campaign {
	return &Campaign{
		Items: []ExposureItem{
			{Core: 0, Label: "r1", Bits: 1000, Cycles: 1_000_000},
			{Core: 0, Label: "r2", Bits: 500, Cycles: 2_000_000},
			{Core: 1, Label: "r3", Bits: 2000, Cycles: 1_000_000},
		},
		Lambda:        []float64{1e-6, 2e-6},
		SpaceBits:     []int64{4000, 4000},
		HorizonCycles: []int64{2_000_000, 2_000_000},
	}
}

func TestCampaignValidate(t *testing.T) {
	c := simpleCampaign()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&Campaign{}).Validate() == nil {
		t.Error("empty campaign accepted")
	}
	bad := simpleCampaign()
	bad.Items[0].Core = -1
	if bad.Validate() == nil {
		t.Error("negative core accepted")
	}
	bad = simpleCampaign()
	bad.Items[0].Bits = -1
	if bad.Validate() == nil {
		t.Error("negative bits accepted")
	}
	bad = simpleCampaign()
	bad.Lambda = []float64{1e-6} // core 1 uncovered
	if bad.Validate() == nil {
		t.Error("short lambda accepted")
	}
	bad = simpleCampaign()
	bad.Lambda[0] = -1
	if bad.Validate() == nil {
		t.Error("negative lambda accepted")
	}
}

func TestCampaignExpectation(t *testing.T) {
	c := simpleCampaign()
	rng := rand.New(rand.NewSource(7))
	res, err := c.Run(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Expected per core: core0 = 1e-6*(1e9 + 1e9) = 2000; core1 = 2e-6*2e9 = 4000.
	if math.Abs(res.PerCore[0].Expected-2000) > 1e-9 {
		t.Errorf("core0 expected = %v, want 2000", res.PerCore[0].Expected)
	}
	if math.Abs(res.PerCore[1].Expected-4000) > 1e-9 {
		t.Errorf("core1 expected = %v, want 4000", res.PerCore[1].Expected)
	}
	if math.Abs(res.TotalExpected()-6000) > 1e-9 {
		t.Errorf("total expected = %v", res.TotalExpected())
	}
	// Measured should be within 6 sigma of expectation.
	got := float64(res.TotalExperienced())
	if math.Abs(got-6000) > 6*math.Sqrt(6000) {
		t.Errorf("experienced = %v, improbably far from 6000", got)
	}
	// Injected covers the whole space, so it must be >= experienced per core.
	for _, pc := range res.PerCore {
		if pc.Injected < pc.Experienced {
			t.Errorf("core %d: injected %d < experienced %d", pc.Core, pc.Injected, pc.Experienced)
		}
	}
	// Injection domain larger than live exposure ⇒ statistically more
	// injected than experienced. core0 space = 8e9 bit·cycles vs 2e9 live.
	if res.TotalInjected() <= res.TotalExperienced() {
		t.Errorf("injected %d should exceed experienced %d for this campaign",
			res.TotalInjected(), res.TotalExperienced())
	}
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	c := simpleCampaign()
	a, _ := c.Run(rand.New(rand.NewSource(42)))
	b, _ := c.Run(rand.New(rand.NewSource(42)))
	if a.TotalExperienced() != b.TotalExperienced() || a.TotalInjected() != b.TotalInjected() {
		t.Error("same seed produced different results")
	}
	d, _ := c.Run(rand.New(rand.NewSource(43)))
	if a.TotalExperienced() == d.TotalExperienced() && a.TotalInjected() == d.TotalInjected() {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestRunRepeated(t *testing.T) {
	c := simpleCampaign()
	totals, mean, err := c.RunRepeated(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(totals) != 50 {
		t.Fatalf("got %d totals", len(totals))
	}
	if math.Abs(mean-6000) > 6*math.Sqrt(6000.0/50) {
		t.Errorf("repeated mean %v improbably far from 6000", mean)
	}
	if _, _, err := c.RunRepeated(1, 0); err == nil {
		t.Error("zero repetitions accepted")
	}
}

func TestZeroLambdaCore(t *testing.T) {
	c := &Campaign{
		Items:  []ExposureItem{{Core: 0, Label: "r", Bits: 1 << 20, Cycles: 1 << 20}},
		Lambda: []float64{0},
	}
	res, err := c.Run(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalExperienced() != 0 || res.TotalInjected() != 0 {
		t.Error("zero λ should inject nothing")
	}
}
