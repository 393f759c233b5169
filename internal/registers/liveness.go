package registers

import (
	"fmt"
	"sort"
)

// Interval is a half-open window [Start, End) in clock cycles during which a
// register holds live state on some core.
type Interval struct {
	Start int64
	End   int64
}

// Cycles returns the interval length.
func (iv Interval) Cycles() int64 { return iv.End - iv.Start }

// overlapsOrTouches reports whether two intervals can be merged.
func (iv Interval) overlapsOrTouches(other Interval) bool {
	return iv.Start <= other.End && other.Start <= iv.End
}

// coreReg identifies a register instance on one core. Because shared
// registers are duplicated across cores (DESIGN.md §5.2), the same register
// ID may be live on several cores simultaneously; each copy is exposed to
// SEUs independently.
type coreReg struct {
	core int
	reg  string
}

// Liveness records, per (core, register) pair, the merged set of cycle
// intervals during which that register copy holds live state.  It is built
// by the cycle-level simulator and consumed by the fault injector and by the
// eq. (4) average-usage metric.
type Liveness struct {
	spans map[coreReg][]Interval
}

// NewLiveness returns an empty liveness trace.
func NewLiveness() *Liveness {
	return &Liveness{spans: make(map[coreReg][]Interval)}
}

// MarkLive records that register reg is live on core during [start, end).
// Overlapping or adjacent intervals for the same (core, register) pair are
// merged. Empty or inverted intervals are rejected.
func (l *Liveness) MarkLive(core int, reg string, start, end int64) error {
	if core < 0 {
		return fmt.Errorf("registers: negative core index %d", core)
	}
	if start < 0 || end <= start {
		return fmt.Errorf("registers: invalid live interval [%d,%d) for %q", start, end, reg)
	}
	key := coreReg{core, reg}
	l.spans[key] = mergeInto(l.spans[key], Interval{start, end})
	return nil
}

// mergeInto inserts iv into the sorted, disjoint interval list and merges.
func mergeInto(list []Interval, iv Interval) []Interval {
	pos := sort.Search(len(list), func(i int) bool { return list[i].Start >= iv.Start })
	list = append(list, Interval{})
	copy(list[pos+1:], list[pos:])
	list[pos] = iv

	out := list[:0]
	for _, cur := range list {
		if n := len(out); n > 0 && out[n-1].overlapsOrTouches(cur) {
			if cur.End > out[n-1].End {
				out[n-1].End = cur.End
			}
			continue
		}
		out = append(out, cur)
	}
	return out
}

// LiveCycles returns the total number of cycles register reg is live on core.
func (l *Liveness) LiveCycles(core int, reg string) int64 {
	var total int64
	for _, iv := range l.spans[coreReg{core, reg}] {
		total += iv.Cycles()
	}
	return total
}

// Exposure returns the SEU exposure of core in bit·cycles: the sum over live
// registers of width × live cycles.  The expected number of SEUs striking
// live state on that core is λ_i × Exposure(i) — the simulation-side
// counterpart of the analytic R_i·T_i term in eq. (3).
func (l *Liveness) Exposure(inv *Inventory, core int) int64 {
	var total int64
	for key, list := range l.spans {
		if key.core != core {
			continue
		}
		bits := inv.Bits(key.reg)
		for _, iv := range list {
			total += bits * iv.Cycles()
		}
	}
	return total
}

// Profile buckets a core's live bits over time: the horizon is split into
// nBuckets equal windows and each bucket reports the exposure (bit·cycles)
// divided by the bucket width — the average live bits in that window. This
// is the register-pressure view of a run (how exposure concentrates in
// time), used by reports and by the lifetime-vs-conservative ablation.
func (l *Liveness) Profile(inv *Inventory, core int, horizon int64, nBuckets int) []float64 {
	out := make([]float64, nBuckets)
	if nBuckets < 1 || horizon <= 0 {
		return nil
	}
	width := float64(horizon) / float64(nBuckets)
	for key, list := range l.spans {
		if key.core != core {
			continue
		}
		bits := float64(inv.Bits(key.reg))
		for _, iv := range list {
			// Distribute the interval's bit·cycles over the buckets it
			// overlaps.
			for b := 0; b < nBuckets; b++ {
				lo := float64(b) * width
				hi := lo + width
				s, e := float64(iv.Start), float64(iv.End)
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				if e > s {
					out[b] += bits * (e - s) / width
				}
			}
		}
	}
	return out
}
