// Package pareto implements the deterministic streaming non-dominated fold
// behind the engine's multi-objective exploration mode.
//
// The source paper's premise is a three-way trade-off — dynamic power,
// soft-error reliability (Γ, expected SEUs experienced) and the real-time
// deadline — yet the scalar design loop collapses every run to one Design.
// This package keeps the whole trade-off surface instead: each scaling
// combination's objective vector (nominal power, T_M, Γ, all minimized) is
// folded into a canonical minimal set of mutually non-dominated points, the
// Pareto frontier the paper's figures actually plot.
//
// The fold is a pure function of the sequence of (vector, index) pairs it
// consumes in visit order: equal frontiers fall out of equal inputs whatever
// worker parallelism produced them, exact-tie duplicates resolve to the
// lowest enumeration index, and the final ordering is a total order over the
// objective values. Dominance over *admissible lower bounds* is monotone —
// once a bound vector is strictly dominated by any point ever admitted, it
// stays dominated by every later frontier — which is what lets the
// branch-and-bound explorer skip combinations against a stale snapshot and
// still reproduce the verdict authoritatively at fold time.
package pareto

import (
	"fmt"
	"sort"
	"strings"
)

// Objectives is a bitmask selecting which objective components participate
// in dominance. The zero value is invalid; use DefaultObjectives (all three)
// or ParseObjectives.
type Objectives uint8

// The objective components, all minimized.
const (
	// ObjPower is the scaling vector's full-utilization dynamic power
	// (eq. 5 with α ≡ 1) — the quantity the scalar loop ranks feasible
	// scalings by.
	ObjPower Objectives = 1 << iota
	// ObjMakespan is T_M, the multiprocessor execution time; minimizing it
	// maximizes slack against the deadline.
	ObjMakespan
	// ObjGamma is Γ, the expected number of SEUs experienced (eq. 3).
	ObjGamma
)

// DefaultObjectives selects the paper's full three-way trade-off.
const DefaultObjectives = ObjPower | ObjMakespan | ObjGamma

// objectiveNames fixes the canonical rendering order.
var objectiveNames = []struct {
	bit  Objectives
	name string
}{
	{ObjPower, "power"},
	{ObjMakespan, "makespan"},
	{ObjGamma, "gamma"},
}

// ParseObjectives resolves a comma-separated objective list from a flag or
// job option ("power,gamma", "makespan", ...). The empty string selects
// DefaultObjectives. Names are deduplicated; order is irrelevant.
func ParseObjectives(s string) (Objectives, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultObjectives, nil
	}
	var o Objectives
	for _, part := range strings.Split(s, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		found := false
		for _, on := range objectiveNames {
			if name == on.name {
				o |= on.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("pareto: unknown objective %q (want power, makespan or gamma)", name)
		}
	}
	return o, nil
}

// Valid reports whether o selects at least one known objective and nothing
// else.
func (o Objectives) Valid() error {
	if o == 0 {
		return fmt.Errorf("pareto: no objectives selected")
	}
	if o&^DefaultObjectives != 0 {
		return fmt.Errorf("pareto: unknown objective bits %#x", uint8(o&^DefaultObjectives))
	}
	return nil
}

// String renders the canonical comma-separated form ("power,makespan,gamma"
// for the default); the same selection always renders the same string, so
// the ingest problem key can hash it.
func (o Objectives) String() string {
	parts := make([]string, 0, len(objectiveNames))
	for _, on := range objectiveNames {
		if o&on.bit != 0 {
			parts = append(parts, on.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Vector is one design point's objective vector. Every component is
// minimized; components whose objective is not selected are ignored by the
// dominance tests.
type Vector struct {
	Power    float64 // nominal dynamic power, W
	Makespan float64 // T_M, seconds
	Gamma    float64 // expected SEUs experienced
}

// components lists v's active values in the canonical objective order.
func (v Vector) components(o Objectives) [3]struct {
	val    float64
	active bool
} {
	return [3]struct {
		val    float64
		active bool
	}{
		{v.Power, o&ObjPower != 0},
		{v.Makespan, o&ObjMakespan != 0},
		{v.Gamma, o&ObjGamma != 0},
	}
}

// Dominates reports whether v dominates w under the selected objectives:
// v ≤ w in every active component and v < w in at least one.
func (v Vector) Dominates(w Vector, o Objectives) bool {
	strict := false
	vc, wc := v.components(o), w.components(o)
	for i := range vc {
		if !vc[i].active {
			continue
		}
		if vc[i].val > wc[i].val {
			return false
		}
		if vc[i].val < wc[i].val {
			strict = true
		}
	}
	return strict
}

// Equal reports whether v and w coincide in every active component.
func (v Vector) Equal(w Vector, o Objectives) bool {
	vc, wc := v.components(o), w.components(o)
	for i := range vc {
		if vc[i].active && vc[i].val != wc[i].val {
			return false
		}
	}
	return true
}

// Less is the frontier's total display order: ascending power, then
// makespan, then Γ over the active components, tie-broken by ascending
// enumeration index. It orders any two entries deterministically.
func less(a, b entryKey, o Objectives) bool {
	ac, bc := a.vec.components(o), b.vec.components(o)
	for i := range ac {
		if !ac[i].active {
			continue
		}
		if ac[i].val != bc[i].val {
			return ac[i].val < bc[i].val
		}
	}
	return a.index < b.index
}

type entryKey struct {
	vec   Vector
	index int
}

// Entry is one frontier member: the objective vector, the combination's
// stable enumeration index, and the caller's payload.
type Entry[T any] struct {
	Vector Vector
	Index  int
	Value  T
}

// Fold is a deterministic streaming non-dominated fold: Offer points in
// visit order, read the frontier back with Entries. The zero value is not
// usable; construct with NewFold. Fold is not safe for concurrent use — the
// exploration engine offers to it in visit order under its stream's lock,
// and nothing reads it outside that lock.
type Fold[T any] struct {
	objectives Objectives
	entries    []Entry[T]
}

// NewFold returns an empty fold over the selected objectives.
func NewFold[T any](o Objectives) (*Fold[T], error) {
	if err := o.Valid(); err != nil {
		return nil, err
	}
	return &Fold[T]{objectives: o}, nil
}

// Offer folds one resolved point into the frontier and reports whether it
// was admitted. A dominated point is rejected; an exact tie (equal in every
// active component) resolves to the lowest enumeration index whichever
// arrives first; an admitted point evicts every member it dominates or
// out-ties. Rejection is final-safe — by transitivity, whatever made a point
// irrelevant stays represented — so the frontier is the lowest-index
// representative set of the globally non-dominated points, invariant under
// any permutation of the Offer sequence.
func (f *Fold[T]) Offer(v Vector, index int, value T) bool {
	for _, e := range f.entries {
		if e.Vector.Dominates(v, f.objectives) {
			return false
		}
		if e.Vector.Equal(v, f.objectives) && e.Index <= index {
			return false
		}
	}
	keep := f.entries[:0]
	for _, e := range f.entries {
		if v.Dominates(e.Vector, f.objectives) {
			continue
		}
		if v.Equal(e.Vector, f.objectives) && index < e.Index {
			continue
		}
		keep = append(keep, e)
	}
	// Zero the evicted tail so payloads don't leak through the backing array.
	for i := len(keep); i < len(f.entries); i++ {
		f.entries[i] = Entry[T]{}
	}
	f.entries = append(keep, Entry[T]{Vector: v, Index: index, Value: value})
	return true
}

// DominatedBound reports whether a point whose objective vector is
// component-wise at least lb — an admissible lower bound — is provably
// dominated by the current frontier, i.e. some member strictly dominates lb
// itself. Because any realized vector r satisfies r ≥ lb component-wise, a
// member below-or-equal lb everywhere and strictly below somewhere is
// below-or-equal r everywhere and strictly below it somewhere too. The
// verdict is monotone under Offer: members are only ever evicted by points
// that dominate them, and dominance is transitive.
func (f *Fold[T]) DominatedBound(lb Vector) bool {
	for _, e := range f.entries {
		if e.Vector.Dominates(lb, f.objectives) {
			return true
		}
	}
	return false
}

// Size returns the number of frontier members.
func (f *Fold[T]) Size() int { return len(f.entries) }

// Min returns the frontier member that sorts first in the canonical order
// (the head of Entries) without copying or sorting the frontier — a linear
// scan for per-event consumers. ok is false while the frontier is empty.
func (f *Fold[T]) Min() (Entry[T], bool) {
	if len(f.entries) == 0 {
		return Entry[T]{}, false
	}
	min := f.entries[0]
	for _, e := range f.entries[1:] {
		if less(entryKey{e.Vector, e.Index}, entryKey{min.Vector, min.Index}, f.objectives) {
			min = e
		}
	}
	return min, true
}

// Entries returns the frontier in its canonical order: ascending power, then
// makespan, then Γ (over the active components), tie-broken by ascending
// enumeration index. The slice is freshly allocated.
func (f *Fold[T]) Entries() []Entry[T] {
	out := append([]Entry[T](nil), f.entries...)
	sort.Slice(out, func(i, j int) bool {
		return less(entryKey{out[i].Vector, out[i].Index}, entryKey{out[j].Vector, out[j].Index}, f.objectives)
	})
	return out
}
