package expt

import (
	"context"
	"fmt"
	"io"

	"seadopt/internal/arch"
	"seadopt/internal/mapping"
	"seadopt/internal/sched"
	"seadopt/internal/sim"
	"seadopt/internal/taskgraph"
	"seadopt/internal/vscale"
)

// AblationResult collects the three design-choice ablations DESIGN.md calls
// out: the conservative-vs-lifetime exposure model, the value of the Fig. 6
// greedy seeding, and the Fig. 5 reduced scaling enumeration vs the
// exhaustive one.
type AblationResult struct {
	Exposure    []ExposureAblationRow
	Seeding     []SeedingAblationRow
	Enumeration EnumerationAblation
}

// ExposureAblationRow compares Γ under the two liveness fidelities for one
// design point.
type ExposureAblationRow struct {
	Workload       string
	Conservative   float64 // expected Γ, allocated-for-the-whole-run model
	Lifetime       float64 // expected Γ, first-use..last-use model
	ReductionRatio float64 // Lifetime / Conservative
}

// SeedingAblationRow compares the proposed mapper's Γ with and without the
// Fig. 6 greedy initial mapping at one scaling vector.
type SeedingAblationRow struct {
	Scaling      []int
	GreedySeed   float64 // Γ with InitialSEAMapping seeding
	BalancedSeed float64 // Γ seeded from round-robin only
}

// EnumerationAblation compares the Fig. 5 reduced scaling enumeration with
// the exhaustive level^cores sweep.
type EnumerationAblation struct {
	Cores, Levels    int
	ReducedCombos    int
	ExhaustiveCombos int
	// BestGammaReduced and BestGammaExhaustive are the Γ of the best
	// feasible design found exploring each set with the same mapper.
	BestGammaReduced    float64
	BestGammaExhaustive float64
}

// Ablations runs all three studies on the MPEG-2 decoder (4 cores).
func Ablations(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	res := &AblationResult{}

	g := taskgraph.MPEG2()
	p, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		return nil, err
	}
	ser := cfg.serModel()

	// --- Exposure-model ablation: Table II Exp:4-style design plus a
	// round-robin scatter, measured under both liveness fidelities.
	designs := []struct {
		name    string
		m       sched.Mapping
		scaling []int
	}{
		{"MPEG-2 clustered (Exp:4-style)", sched.Mapping{0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}, []int{2, 2, 3, 2}},
		{"MPEG-2 round-robin", sched.RoundRobin(g.N(), 4), []int{2, 2, 3, 2}},
	}
	for _, d := range designs {
		r, err := sim.Run(g, p, d.m, d.scaling, sim.Config{Iterations: 1})
		if err != nil {
			return nil, err
		}
		row := ExposureAblationRow{Workload: d.name}
		for _, mode := range []sim.ExposureMode{sim.ExposureConservative, sim.ExposureLifetime} {
			c, err := r.Campaign(ser, mode)
			if err != nil {
				return nil, err
			}
			var expected float64
			for _, it := range c.Items {
				// Round each term (an explicit float64), so no
				// architecture fuses it into the sum.
				expected += float64(c.Lambda[it.Core] * it.BitCycles())
			}
			if mode == sim.ExposureConservative {
				row.Conservative = expected
			} else {
				row.Lifetime = expected
			}
		}
		if row.Conservative > 0 {
			row.ReductionRatio = row.Lifetime / row.Conservative
		}
		res.Exposure = append(res.Exposure, row)
	}

	// --- Seeding ablation: proposed mapper with vs without the greedy
	// stage, same total budget, at the Table II scalings.
	mcfg := mpeg2MappingConfig(cfg)
	for _, scaling := range [][]int{{2, 2, 3, 2}, {3, 3, 3, 3}, {2, 2, 2, 2}} {
		init, err := mapping.InitialSEAMapping(g, p, scaling, mcfg)
		if err != nil {
			return nil, err
		}
		withGreedy, err := mapping.OptimizedMapping(g, p, scaling, init, mcfg)
		if err != nil {
			return nil, err
		}
		withBalanced, err := mapping.OptimizedMapping(g, p, scaling, sched.RoundRobin(g.N(), 4), mcfg)
		if err != nil {
			return nil, err
		}
		res.Seeding = append(res.Seeding, SeedingAblationRow{
			Scaling:      append([]int(nil), scaling...),
			GreedySeed:   withGreedy.Gamma,
			BalancedSeed: withBalanced.Gamma,
		})
	}

	// --- Enumeration ablation: reduced vs exhaustive scaling sets with the
	// same (cheap) mapper budget.
	enumCfg := mcfg
	enumCfg.SearchMoves = cfg.SearchMoves / 4
	if enumCfg.SearchMoves < 100 {
		enumCfg.SearchMoves = 100
	}
	mapper := mapping.SEAMapper(enumCfg)
	reduced, err := vscale.All(4, 3)
	if err != nil {
		return nil, err
	}
	exhaustive := vscale.Exhaustive(4, 3)
	bestOver := func(combos [][]int) (float64, error) {
		best := -1.0
		var bestNom float64
		for _, s := range combos {
			_, ev, err := mapping.MapOnce(context.Background(), g, p, s, mapper, enumCfg)
			if err != nil {
				return 0, err
			}
			if !ev.MeetsDeadline {
				continue
			}
			nom, err := p.DynamicPower(s, nil)
			if err != nil {
				return 0, err
			}
			if best < 0 || nom < bestNom || (nom == bestNom && ev.Gamma < best) {
				best = ev.Gamma
				bestNom = nom
			}
		}
		return best, nil
	}
	bg, err := bestOver(reduced)
	if err != nil {
		return nil, err
	}
	bge, err := bestOver(exhaustive)
	if err != nil {
		return nil, err
	}
	res.Enumeration = EnumerationAblation{
		Cores: 4, Levels: 3,
		ReducedCombos:       len(reduced),
		ExhaustiveCombos:    len(exhaustive),
		BestGammaReduced:    bg,
		BestGammaExhaustive: bge,
	}
	return res, nil
}

// Render writes the three ablation tables.
func (r *AblationResult) Render(w io.Writer) {
	t1 := &Table{
		Title:   "Ablation 1: exposure model — conservative (paper, eq. 3) vs first-use..last-use liveness",
		Headers: []string{"Design", "Γ conservative", "Γ lifetime", "lifetime/conservative"},
	}
	for _, row := range r.Exposure {
		t1.AddRow(row.Workload,
			fmt.Sprintf("%.4g", row.Conservative),
			fmt.Sprintf("%.4g", row.Lifetime),
			fmt.Sprintf("%.2f", row.ReductionRatio))
	}
	t1.Render(w)
	fmt.Fprintln(w)

	t2 := &Table{
		Title:   "Ablation 2: value of the Fig. 6 greedy seed (same total search budget)",
		Headers: []string{"Scaling", "Γ greedy+search", "Γ balanced+search", "Δ"},
	}
	for _, row := range r.Seeding {
		t2.AddRow(fmt.Sprint(row.Scaling),
			fmt.Sprintf("%.4g", row.GreedySeed),
			fmt.Sprintf("%.4g", row.BalancedSeed),
			pct(row.GreedySeed, row.BalancedSeed))
	}
	t2.Render(w)
	fmt.Fprintln(w)

	e := r.Enumeration
	t3 := &Table{
		Title:   "Ablation 3: Fig. 5 reduced scaling enumeration vs exhaustive",
		Headers: []string{"Set", "Combos explored", "Best feasible Γ"},
	}
	t3.AddRow("Fig. 5 (non-increasing)", fmt.Sprint(e.ReducedCombos), fmt.Sprintf("%.4g", e.BestGammaReduced))
	t3.AddRow(fmt.Sprintf("exhaustive %d^%d", e.Levels, e.Cores), fmt.Sprint(e.ExhaustiveCombos), fmt.Sprintf("%.4g", e.BestGammaExhaustive))
	t3.Render(w)
	fmt.Fprintf(w, "The reduced enumeration explores %.0f%% of the raw combinations.\n",
		float64(e.ReducedCombos)/float64(e.ExhaustiveCombos)*100)
}
