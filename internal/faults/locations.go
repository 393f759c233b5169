package faults

import (
	"math/rand"
	"sort"
)

// Upset is one sampled SEU strike on live state: which core, which exposure
// item (register copy or baseline block), which bit, and when. This extends
// the counting campaign with the location information the paper's SystemC
// injector [11] uses to actually flip state.
type Upset struct {
	Core  int
	Label string
	Bit   int64 // bit index within the item, [0, Bits)
	Cycle int64 // local clock cycle of the strike
}

// SampleUpsets runs the campaign and materializes every experienced SEU as
// a located Upset: per item the count is Poisson(λ·bits·cycles) and the
// (bit, cycle) coordinates are uniform over the item's exposure rectangle —
// exactly the sampling the paper describes ("the number of SEUs to be
// injected is identified and their locations are determined using Poisson
// distribution"). Cycle coordinates index the item's live cycles in order
// (0 = first live cycle), since items may aggregate disjoint intervals.
//
// maxUpsets bounds the returned slice (0 = unbounded); campaigns at high
// SER can produce millions of strikes, and callers that only need counts
// should use Run instead.
func (c *Campaign) SampleUpsets(rng *rand.Rand, maxUpsets int) ([]Upset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var out []Upset
	for _, it := range c.Items {
		if it.Bits == 0 || it.Cycles == 0 {
			continue
		}
		mean := c.Lambda[it.Core] * it.BitCycles()
		n := Poisson(rng, mean)
		for k := int64(0); k < n; k++ {
			if maxUpsets > 0 && len(out) >= maxUpsets {
				return out, nil
			}
			out = append(out, Upset{
				Core:  it.Core,
				Label: it.Label,
				Bit:   rng.Int63n(it.Bits),
				Cycle: rng.Int63n(it.Cycles),
			})
		}
	}
	return out, nil
}

// TaskImpact summarizes which application tasks an upset set can corrupt:
// an upset in a register is attributed to every task whose footprint
// includes that register (the task would read or write the struck state).
type TaskImpact struct {
	Task    string
	Upsets  int
	Percent float64
}

// AttributeToTasks maps upsets to the tasks using each struck register.
// usedBy maps register label -> task names (the caller derives it from the
// graph's footprints); upsets in baseline storage map to the pseudo-task
// "(baseline)". Results are sorted by descending upset count.
func AttributeToTasks(upsets []Upset, usedBy map[string][]string) []TaskImpact {
	counts := make(map[string]int)
	total := 0
	for _, u := range upsets {
		total++
		tasks, ok := usedBy[u.Label]
		if !ok || len(tasks) == 0 {
			counts["(baseline)"]++
			continue
		}
		for _, t := range tasks {
			counts[t]++
		}
	}
	out := make([]TaskImpact, 0, len(counts))
	for task, n := range counts {
		pct := 0.0
		if total > 0 {
			pct = float64(n) / float64(total) * 100
		}
		out = append(out, TaskImpact{Task: task, Upsets: n, Percent: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Upsets != out[j].Upsets {
			return out[i].Upsets > out[j].Upsets
		}
		return out[i].Task < out[j].Task
	})
	return out
}
