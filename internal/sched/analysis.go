package sched

import (
	"fmt"
	"sort"
)

// Validate checks the structural invariants of a schedule and returns the
// first violation found, if any:
//
//   - every task has a slot on its mapped core;
//   - no two slots overlap on the same core;
//   - every dependency is respected, including cross-core communication
//     latency — at the slower endpoint's clock under the ideal fabric, or
//     at least the uncontended interconnect transfer time (contention only
//     ever delays a token, so the uncontended time is a sound floor);
//   - the recorded makespan equals the latest slot end;
//   - the per-core busy-cycle billing is exactly the eq. (7) model: each
//     core's task cycles plus the cycles of every cross-core edge it is an
//     endpoint of (billed to BOTH endpoints — the producer drives the
//     transfer, the consumer receives it), with busy seconds consistent at
//     each core's own clock.
//
// The scheduler produces valid schedules by construction; Validate exists
// for tests, for externally-constructed schedules, and as an executable
// statement of the timing and billing model.
func (s *Schedule) Validate() error {
	g := s.Graph
	n := g.N()
	if len(s.Slots) != n {
		return fmt.Errorf("sched: %d slots for %d tasks", len(s.Slots), n)
	}
	const eps = 1e-12
	for t := 0; t < n; t++ {
		slot := s.Slots[t]
		if int(slot.Task) != t {
			return fmt.Errorf("sched: slot %d holds task %d", t, slot.Task)
		}
		if slot.Core != s.Mapping[t] {
			return fmt.Errorf("sched: task %d scheduled on core %d, mapped to %d", t, slot.Core, s.Mapping[t])
		}
		if slot.EndSec < slot.StartSec {
			return fmt.Errorf("sched: task %d has negative duration", t)
		}
	}
	// Per-core overlap check.
	perCore := make(map[int][]Slot)
	for _, slot := range s.Slots {
		perCore[slot.Core] = append(perCore[slot.Core], slot)
	}
	for core, slots := range perCore {
		sort.Slice(slots, func(i, j int) bool { return slots[i].StartSec < slots[j].StartSec })
		for i := 1; i < len(slots); i++ {
			if slots[i].StartSec < slots[i-1].EndSec-eps {
				return fmt.Errorf("sched: core %d overlap between tasks %d and %d",
					core, slots[i-1].Task, slots[i].Task)
			}
		}
	}
	// Precedence check.
	for _, e := range g.Edges() {
		pre, post := s.Slots[e.From], s.Slots[e.To]
		minStart := pre.EndSec
		if s.Mapping[e.From] != s.Mapping[e.To] && e.Cycles > 0 {
			if s.icn != nil {
				minStart += s.icn.TransferSeconds(s.Mapping[e.From], s.Mapping[e.To], e.Cycles)
			} else {
				fSlow := s.freqHz[s.Mapping[e.From]]
				if fd := s.freqHz[s.Mapping[e.To]]; fd < fSlow {
					fSlow = fd
				}
				minStart += float64(e.Cycles) / fSlow
			}
		}
		if post.StartSec < minStart-eps {
			return fmt.Errorf("sched: edge %d->%d violated: start %.12f < %.12f",
				e.From, e.To, post.StartSec, minStart)
		}
	}
	// Eq. (7) billing check: recompute each core's busy cycles from the
	// graph and mapping, and the busy seconds at that core's clock.
	wantCycles := make([]int64, len(s.busyCycles))
	for t := 0; t < n; t++ {
		core := s.Mapping[t]
		wantCycles[core] += g.Task(s.Slots[t].Task).Cycles
		for _, e := range g.Succs(s.Slots[t].Task) {
			if s.Mapping[e.To] != core {
				wantCycles[core] += e.Cycles
				wantCycles[s.Mapping[e.To]] += e.Cycles
			}
		}
	}
	for c, want := range wantCycles {
		if s.busyCycles[c] != want {
			return fmt.Errorf("sched: core %d bills %d busy cycles, eq. (7) both-endpoint model gives %d",
				c, s.busyCycles[c], want)
		}
		wantSec := float64(want) / s.freqHz[c]
		if diff := s.busySec[c] - wantSec; diff > eps || diff < -eps {
			return fmt.Errorf("sched: core %d busy %.12fs, billing at %.0f Hz gives %.12fs",
				c, s.busySec[c], s.freqHz[c], wantSec)
		}
	}
	// Makespan check.
	var maxEnd float64
	for _, slot := range s.Slots {
		if slot.EndSec > maxEnd {
			maxEnd = slot.EndSec
		}
	}
	if diff := maxEnd - s.makespan; diff > eps || diff < -eps {
		return fmt.Errorf("sched: makespan %.12f != max slot end %.12f", s.makespan, maxEnd)
	}
	return nil
}
