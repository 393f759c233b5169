package registers

import (
	"slices"
	"sort"
)

// Accessors and oracles that only this package's tests use.

// Contains reports whether cycle t lies inside the interval.
func (iv Interval) Contains(t int64) bool { return t >= iv.Start && t < iv.End }

// Cores returns the sorted list of cores with at least one live register.
func (l *Liveness) Cores() []int {
	var out []int
	for key := range l.spans {
		if !slices.Contains(out, key.core) {
			out = append(out, key.core)
		}
	}
	sort.Ints(out)
	return out
}

// horizon returns the latest End of any live interval (0 when none).
func (l *Liveness) horizon() int64 {
	var h int64
	for _, list := range l.spans {
		h = max(h, list[len(list)-1].End)
	}
	return h
}

// Registers returns the sorted register IDs with live state on core.
func (l *Liveness) Registers(core int) []string {
	var out []string
	for key := range l.spans {
		if key.core == core {
			out = append(out, key.reg)
		}
	}
	sort.Strings(out)
	return out
}

// Intervals returns a copy of the merged live intervals for (core, reg).
func (l *Liveness) Intervals(core int, reg string) []Interval {
	src := l.spans[coreReg{core, reg}]
	out := make([]Interval, len(src))
	copy(out, src)
	return out
}

// LiveAt reports whether register reg is live on core at cycle t.
func (l *Liveness) LiveAt(core int, reg string, t int64) bool {
	list := l.spans[coreReg{core, reg}]
	pos := sort.Search(len(list), func(i int) bool { return list[i].End > t })
	return pos < len(list) && list[pos].Contains(t)
}

// AvgBitsPerCycle implements eq. (4): the register usage R_i of core i as the
// average number of live bits per cycle over the window [0, horizon).
func (l *Liveness) AvgBitsPerCycle(inv *Inventory, core int, horizon int64) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(l.Exposure(inv, core)) / float64(horizon)
}

// LiveBitsAt returns the number of live bits on core at cycle t.
func (l *Liveness) LiveBitsAt(inv *Inventory, core int, t int64) int64 {
	var total int64
	for key := range l.spans {
		if key.core != core {
			continue
		}
		if l.LiveAt(core, key.reg, t) {
			total += inv.Bits(key.reg)
		}
	}
	return total
}

// Add inserts id into the set.
func (s Set) Add(id string) { s[id] = struct{}{} }

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for id := range s {
		out[id] = struct{}{}
	}
	return out
}

// Union returns a new set holding the union of the operands: the map-set
// oracle of Profile's bitmask unions.
func Union(sets ...Set) Set {
	out := make(Set)
	for _, s := range sets {
		out.UnionWith(s)
	}
	return out
}
