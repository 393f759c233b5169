package faults

import (
	"math"
	"math/rand"
)

// Poisson draws a Poisson-distributed variate with the given mean from rng.
//
// For small means it uses Knuth's product-of-uniforms method; for large
// means it switches to the PTRS transformed-rejection sampler of Hörmann
// (1993), which stays O(1) as the mean grows — injection campaigns routinely
// have means in the 1e5 range (Γ ≈ 10⁵ SEUs in Table II).
func Poisson(rng *rand.Rand, mean float64) int64 {
	switch {
	case mean <= 0 || math.IsNaN(mean):
		return 0
	case mean < 30:
		return poissonKnuth(rng, mean)
	default:
		return poissonPTRS(rng, mean)
	}
}

func poissonKnuth(rng *rand.Rand, mean float64) int64 {
	l := math.Exp(-mean)
	var k int64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm. Each product is rounded
// before it is added or subtracted (an explicit float64), so no
// architecture fuses the two and a seed draws the same variates everywhere.
func poissonPTRS(rng *rand.Rand, mean float64) int64 {
	smu := math.Sqrt(mean)
	b := 0.931 + float64(2.53*smu)
	a := -0.059 + float64(0.02483*b)
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMu := math.Log(mean)
	for {
		u := float64(rng.Float64()) - 0.5 // Float64 inlines to a product
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor(float64((2*a/us+b)*u) + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= float64(k*logMu)-mean-lg {
			return int64(k)
		}
	}
}
