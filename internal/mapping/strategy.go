package mapping

import "fmt"

// Strategy selects how the Fig. 4 outer loop walks the voltage-scaling
// design space. All strategies stream combinations lazily (memory stays
// O(workers), never O(combinations)) and derive each combination's mapper
// seed from its stable Fig. 5 enumeration index, so any two strategies that
// evaluate the same combination evaluate it byte-identically.
type Strategy string

const (
	// StrategyBranchAndBound (the default) explores the full enumeration
	// but skips the mapper wherever a cheap admissible bound proves the
	// combination cannot win: scalings whose best-case makespan already
	// misses the deadline are pruned, and scalings whose nominal power is
	// dominated by a resolved feasible incumbent at a lower enumeration
	// index are skipped. The chosen Design is provably byte-identical to
	// StrategyExhaustive whenever any deadline-meeting design exists; if
	// none does, the engine deterministically falls back to an exhaustive
	// pass so the degenerate all-infeasible verdict matches too.
	StrategyBranchAndBound Strategy = "bnb"
	// StrategyExhaustive runs the mapper on every combination — the exact
	// historical behavior, and the reference the equivalence property
	// tests compare against. The paper tables are regenerated under it.
	StrategyExhaustive Strategy = "exhaustive"
	// StrategySampled explores a seed-deterministic uniform sample of
	// Config.SampleBudget combinations (with branch-and-bound pruning
	// inside the sample) — an explicitly approximate portfolio for spaces
	// too large to enumerate: the result is the best design within the
	// sample, not a global optimum.
	StrategySampled Strategy = "sampled"
)

// DefaultSampleBudget is the StrategySampled portfolio size when
// Config.SampleBudget is zero.
const DefaultSampleBudget = 256

// withDefault resolves the empty strategy to the default.
func (s Strategy) withDefault() Strategy {
	if s == "" {
		return StrategyBranchAndBound
	}
	return s
}

// Valid reports whether s names a known strategy ("" selects the default).
func (s Strategy) Valid() error {
	switch s {
	case "", StrategyBranchAndBound, StrategyExhaustive, StrategySampled:
		return nil
	}
	return fmt.Errorf("mapping: unknown strategy %q (want %s, %s or %s)",
		string(s), StrategyBranchAndBound, StrategyExhaustive, StrategySampled)
}

// ParseStrategy resolves a user-facing strategy name (CLI flag, job option).
// The empty string selects the default strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "default":
		return StrategyBranchAndBound, nil
	case "bnb", "b&b", "branch-and-bound", "bb":
		return StrategyBranchAndBound, nil
	case "exhaustive", "full":
		return StrategyExhaustive, nil
	case "sampled", "sample":
		return StrategySampled, nil
	}
	return "", fmt.Errorf("mapping: unknown strategy %q (want bnb, exhaustive or sampled)", name)
}
