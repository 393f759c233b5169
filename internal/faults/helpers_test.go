package faults

// Accessors and oracles that only this package's tests use.

// TotalInjected returns the number of SEUs injected across all cores.
func (r *Result) TotalInjected() int64 {
	var n int64
	for _, c := range r.PerCore {
		n += c.Injected
	}
	return n
}
