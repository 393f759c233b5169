package faults

import (
	"math"
	"testing"

	"seadopt/internal/arch"
)

// TestRatePerSecBitsPinned pins the bits of λ at the Table I operating
// points (the ARM7 3- and 4-level tables, the latter with 1.2 V/236 MHz).
// λ feeds every Γ, and it goes through math.Exp and math.Log, whose
// assembly differs between GOARCHes and from the pure-Go code, and through
// float operations a compiler may fuse. Any such change to λ, or to the
// voltage law in front of it, fails here instead of moving result bytes.
func TestRatePerSecBitsPinned(t *testing.T) {
	m := NewSERModel(DefaultSER)
	for _, tc := range []struct {
		name            string
		level           arch.Level
		vddBits, lambda uint64
	}{
		{"3-level s=1 200 MHz", arch.ARM7Levels3()[0], 0x3ff00029f16b11c7, 0x3fb99975f221f583},
		{"3-level s=2 100 MHz", arch.ARM7Levels3()[1], 0x3fe2aaf78feef5ec, 0x3fbff1587d67b0cd},
		{"3-level s=3 66.7 MHz", arch.ARM7Levels3()[2], 0x3fdc725c3dee7818, 0x3fc131cae9bb6ee3},
		{"4-level s=1 236 MHz", arch.ARM7Levels4()[0], 0x3ff3333333333333, 0x3fb704f1a243db04},
		{"4-level s=2 200 MHz", arch.ARM7Levels4()[1], 0x3ff00029f16b11c7, 0x3fb99975f221f583},
		{"4-level s=3 100 MHz", arch.ARM7Levels4()[2], 0x3fe2aaf78feef5ec, 0x3fbff1587d67b0cd},
		{"4-level s=4 66.7 MHz", arch.ARM7Levels4()[3], 0x3fdc725c3dee7818, 0x3fc131cae9bb6ee3},
	} {
		if got := math.Float64bits(tc.level.Vdd); got != tc.vddBits {
			t.Errorf("%s: Vdd %v has bits %#016x, pinned %#016x", tc.name, tc.level.Vdd, got, tc.vddBits)
			continue
		}
		lambda := m.RatePerSec(tc.level.Vdd)
		if got := math.Float64bits(lambda); got != tc.lambda {
			t.Errorf("%s: λ(%v V) = %v has bits %#016x, pinned %#016x (%v)",
				tc.name, tc.level.Vdd, lambda, got, tc.lambda, math.Float64frombits(tc.lambda))
		}
	}
}
