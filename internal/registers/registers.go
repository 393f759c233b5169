// Package registers models the register resources of an MPSoC application.
//
// In the paper's system model (Shafik et al., DATE 2010, §II-B and eq. 8)
// every application task uses a set of named register resources — local
// working registers plus buffers shared with other tasks (bitstream windows,
// block buffers, coefficient stores, ...).  The per-core register usage R_i
// that drives the SEU count Γ = Σ R_i·T_i·λ_i is the cardinality, in bits, of
// the union of the register sets of all tasks mapped to core i.  A register
// shared by tasks mapped to different cores is *duplicated* on every such
// core, which is the mechanism behind the paper's R-versus-T_M trade-off.
//
// The package provides three building blocks:
//
//   - Inventory: the catalogue of register resources and their widths.
//   - Set: a set of register IDs, with the union/intersection operations the
//     mapping algorithms need.
//   - Liveness: cycle-resolved live intervals per (core, register), produced
//     by the cycle-level simulator and consumed by the fault injector.
package registers

import (
	"fmt"
	"sort"
)

// Register is a named storage resource of a fixed width.
type Register struct {
	ID   string // unique identifier, e.g. "sh_coef" or "loc_t7"
	Bits int64  // width in bits
}

// Inventory is the catalogue of all register resources of an application.
// The zero value is not usable; create one with NewInventory.
type Inventory struct {
	regs  map[string]Register
	order []string // insertion order, for deterministic iteration
}

// NewInventory returns an empty inventory. A caller that knows how many
// registers it will add passes that count as sizeHint, so adding them
// grows neither the map nor the insertion order.
func NewInventory(sizeHint ...int) *Inventory {
	n := 0
	if len(sizeHint) > 0 {
		n = sizeHint[0]
	}
	return &Inventory{regs: make(map[string]Register, n), order: make([]string, 0, n)}
}

// Add registers a resource. It reports an error for duplicate IDs, empty IDs
// and non-positive widths.
func (inv *Inventory) Add(id string, bits int64) error {
	if id == "" {
		return fmt.Errorf("registers: empty register ID")
	}
	if bits <= 0 {
		return fmt.Errorf("registers: register %q has non-positive width %d", id, bits)
	}
	if _, dup := inv.regs[id]; dup {
		return fmt.Errorf("registers: duplicate register ID %q", id)
	}
	inv.regs[id] = Register{ID: id, Bits: bits}
	inv.order = append(inv.order, id)
	return nil
}

// MustAdd is Add but panics on error; intended for static fixture tables.
func (inv *Inventory) MustAdd(id string, bits int64) {
	if err := inv.Add(id, bits); err != nil {
		panic(err)
	}
}

// Get returns the register with the given ID.
func (inv *Inventory) Get(id string) (Register, bool) {
	r, ok := inv.regs[id]
	return r, ok
}

// Bits returns the width of register id, or 0 if it does not exist.
func (inv *Inventory) Bits(id string) int64 {
	return inv.regs[id].Bits
}

// Has reports whether the inventory contains register id.
func (inv *Inventory) Has(id string) bool {
	_, ok := inv.regs[id]
	return ok
}

// Len returns the number of registers in the inventory.
func (inv *Inventory) Len() int { return len(inv.regs) }

// IDs returns all register IDs in insertion order.
func (inv *Inventory) IDs() []string {
	out := make([]string, len(inv.order))
	copy(out, inv.order)
	return out
}

// TotalBits returns the summed width of every register in the inventory.
func (inv *Inventory) TotalBits() int64 {
	var total int64
	for _, id := range inv.order {
		total += inv.regs[id].Bits
	}
	return total
}

// SetBits returns the summed width of the registers in s (eq. 8's |·|,
// the cardinality of a register set measured in bits).
func (inv *Inventory) SetBits(s Set) int64 {
	var total int64
	for id := range s {
		total += inv.regs[id].Bits
	}
	return total
}

// SharedBits returns the width of the intersection of a and b — the amount
// of register state two tasks (or task groups) share.
func (inv *Inventory) SharedBits(a, b Set) int64 {
	var total int64
	for id := range a {
		if b.Has(id) {
			total += inv.regs[id].Bits
		}
	}
	return total
}

// Set is a set of register IDs.
type Set map[string]struct{}

// NewSet builds a set from the listed IDs.
func NewSet(ids ...string) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set.
func (s Set) Add(id string) { s[id] = struct{}{} }

// Has reports membership of id.
func (s Set) Has(id string) bool {
	_, ok := s[id]
	return ok
}

// Len returns the number of IDs in the set.
func (s Set) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for id := range s {
		out[id] = struct{}{}
	}
	return out
}

// UnionWith adds every member of other to s, in place.
func (s Set) UnionWith(other Set) {
	for id := range other {
		s[id] = struct{}{}
	}
}

// Union returns a new set holding the union of the operands.
func Union(sets ...Set) Set {
	out := make(Set)
	for _, s := range sets {
		out.UnionWith(s)
	}
	return out
}

// Intersect returns a new set holding the intersection of a and b.
func Intersect(a, b Set) Set {
	out := make(Set)
	for id := range a {
		if b.Has(id) {
			out[id] = struct{}{}
		}
	}
	return out
}

// IDs returns the member IDs in sorted order, for deterministic output.
func (s Set) IDs() []string {
	out := make([]string, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether the two sets hold exactly the same IDs.
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	for id := range s {
		if !other.Has(id) {
			return false
		}
	}
	return true
}
