package metrics

// Accessors and oracles that only this package's tests use.

// NominalPower returns the scaling vector's full-utilization dynamic power
// (eq. 5 with α ≡ 1) — the exact quantity the step-3 acceptance rule ranks
// feasible scalings by, available without scheduling anything. The value is
// reduced from the level histogram, so physically equal vectors (any
// permutation within a symmetry class) produce bit-identical power.
func (b *Bounds) NominalPower(scaling []int) (float64, error) {
	cnt, err := b.histogram(scaling)
	if err != nil {
		return 0, err
	}
	return b.nominalFromHist(cnt), nil
}
