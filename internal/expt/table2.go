package expt

import (
	"context"
	"fmt"
	"io"

	"seadopt/internal/anneal"
	"seadopt/internal/arch"
	"seadopt/internal/mapping"
	"seadopt/internal/metrics"
	"seadopt/internal/sim"
	"seadopt/internal/taskgraph"
)

// ExperimentName labels the four design-optimization experiments of §V.
type ExperimentName string

const (
	Exp1 ExperimentName = "Exp:1 (Reg. Usage)"
	Exp2 ExperimentName = "Exp:2 (Parallelism)"
	Exp3 ExperimentName = "Exp:3 (Reg.Usage&Paral.)"
	Exp4 ExperimentName = "Exp:4 (Proposed)"
)

// TableIIRow is one experiment's optimized MPEG-2 design.
type TableIIRow struct {
	Name          ExperimentName
	Design        *mapping.Design
	MeasuredGamma float64 // fault-injection mean over Config.FaultRuns
}

// TableIIResult reproduces Table II: the four experiments on the MPEG-2
// decoder with four processing cores.
type TableIIResult struct {
	Rows []TableIIRow
}

// expMappers returns the four experiments' mappers in Table II order.
func expMappers(cfg Config, mcfg mapping.Config) []struct {
	name ExperimentName
	fn   mapping.MapperFunc
} {
	base := anneal.Config{
		SER:         mcfg.SER,
		DeadlineSec: mcfg.DeadlineSec,
		Iterations:  mcfg.Iterations,
		Moves:       cfg.AnnealMoves,
		Seed:        cfg.Seed,
	}
	withObj := func(o anneal.Objective) anneal.Config {
		c := base
		c.Objective = o
		return c
	}
	return []struct {
		name ExperimentName
		fn   mapping.MapperFunc
	}{
		{Exp1, anneal.Mapper(withObj(anneal.ObjectiveRegisterUsage))},
		{Exp2, anneal.Mapper(withObj(anneal.ObjectiveMakespan))},
		{Exp3, anneal.Mapper(withObj(anneal.ObjectiveRegTimeProduct))},
		{Exp4, mapping.SEAMapper(mcfg)},
	}
}

// mpeg2MappingConfig returns the Table II optimization configuration. All
// paper tables run under the exhaustive strategy: branch-and-bound would
// return the same designs, but the tables report (and regress against)
// every per-scaling data point.
func mpeg2MappingConfig(cfg Config) mapping.Config {
	return mapping.Config{
		SER:         cfg.serModel(),
		DeadlineSec: taskgraph.MPEG2Deadline,
		Iterations:  taskgraph.MPEG2Frames,
		SearchMoves: cfg.SearchMoves,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		Strategy:    mapping.StrategyExhaustive,
	}
}

// TableII runs the four experiments: each is a full Fig. 4 design loop
// (power-minimizing voltage scaling iteration) around its own mapper, then a
// cycle-level simulation with fault injection measures Γ for the chosen
// design. The four explorations share one feasibility-probe cache: the
// mapper-independent deadline verdict per scaling is computed once, not
// once per experiment.
func TableII(cfg Config) (*TableIIResult, error) {
	cfg = cfg.withDefaults()
	g := taskgraph.MPEG2()
	p, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		return nil, err
	}
	mcfg := mpeg2MappingConfig(cfg)
	mcfg.Reuse = mapping.NewReuse()
	res := &TableIIResult{}
	for _, exp := range expMappers(cfg, mcfg) {
		best, err := mapping.Explore(g, p, exp.fn, mcfg)
		if err != nil {
			return nil, fmt.Errorf("expt: %s: %w", exp.name, err)
		}
		measured, err := measureGamma(g, p, best, cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: %s: %w", exp.name, err)
		}
		res.Rows = append(res.Rows, TableIIRow{Name: exp.name, Design: best, MeasuredGamma: measured})
	}
	return res, nil
}

// measureGamma runs the cycle-level simulator and a repeated fault-injection
// campaign on a design, returning the mean measured Γ.
func measureGamma(g *taskgraph.Graph, p *arch.Platform, d *mapping.Design, cfg Config) (float64, error) {
	iters := 1
	if g.Name() == "mpeg2-decoder" {
		iters = taskgraph.MPEG2Frames
	}
	r, err := sim.Run(g, p, d.Mapping, d.Scaling, sim.Config{Iterations: iters})
	if err != nil {
		return 0, err
	}
	campaign, err := r.Campaign(cfg.serModel(), sim.ExposureConservative)
	if err != nil {
		return 0, err
	}
	_, mean, err := campaign.RunRepeated(cfg.Seed, cfg.FaultRuns)
	if err != nil {
		return 0, err
	}
	return mean, nil
}

// table builds the paper-style Table II.
func (r *TableIIResult) table() *Table {
	t := &Table{
		Title: "Table II: soft error-unaware vs proposed soft error-aware optimization (MPEG-2, 4 cores)",
		Headers: []string{"Exp.", "Mapped tasks (per core)", "scal. s_i", "P, mW",
			"R, kb/c", "T_M (s)", "Γ est.", "Γ meas."},
	}
	for _, row := range r.Rows {
		ev := row.Design.Eval
		coreTasks := row.Design.Mapping.CoreTasks(len(row.Design.Scaling))
		var tasks, scal string
		for c, ids := range coreTasks {
			ints := make([]int, len(ids))
			for i, id := range ids {
				ints[i] = int(id)
			}
			if c > 0 {
				tasks += " | "
				scal += ","
			}
			tasks += fmtTasks(ints)
			scal += fmt.Sprintf("%d", row.Design.Scaling[c])
		}
		t.AddRow(string(row.Name), tasks, scal,
			fmt.Sprintf("%.2f", ev.PowerW*1e3),
			fmt.Sprintf("%.0f", float64(ev.TotalRegBits)/1024.0),
			fmt.Sprintf("%.2f", ev.TMSeconds),
			fmt.Sprintf("%.3g", ev.Gamma),
			fmt.Sprintf("%.3g", row.MeasuredGamma))
	}
	return t
}

// Render writes the paper-style table.
func (r *TableIIResult) Render(w io.Writer) { r.table().Render(w) }

// CSVTo writes the table as CSV.
func (r *TableIIResult) CSVTo(w io.Writer) { r.table().CSV(w) }

// Fig9Row compares one baseline against Exp:4 at the same voltage scaling.
type Fig9Row struct {
	Name       ExperimentName
	Gamma      float64
	PowerW     float64
	GammaDelta float64 // (Γ_exp − Γ_exp4)/Γ_exp4
	PowerDelta float64
}

// Fig9Result reproduces Fig. 9: comparative SEUs and power of Exp:1-3
// against Exp:4 with all experiments forced to the same scaling vector.
type Fig9Result struct {
	Scaling []int
	Exp4    Fig9Row
	Rows    []Fig9Row
}

// Fig9 runs all four mappers at one fixed scaling vector (the paper uses
// Exp:4's Table II choice, s = 2,2,3,2) and reports relative Γ and power.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	g := taskgraph.MPEG2()
	p, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		return nil, err
	}
	scaling := []int{2, 2, 3, 2}
	mcfg := mpeg2MappingConfig(cfg)

	var evals []*metrics.Evaluation
	var names []ExperimentName
	for _, exp := range expMappers(cfg, mcfg) {
		_, ev, err := mapping.MapOnce(context.Background(), g, p, scaling, exp.fn, mcfg)
		if err != nil {
			return nil, fmt.Errorf("expt: fig9 %s: %w", exp.name, err)
		}
		evals = append(evals, ev)
		names = append(names, exp.name)
	}
	ref := evals[3] // Exp:4
	res := &Fig9Result{
		Scaling: scaling,
		Exp4:    Fig9Row{Name: Exp4, Gamma: ref.Gamma, PowerW: ref.PowerW},
	}
	for i := 0; i < 3; i++ {
		res.Rows = append(res.Rows, Fig9Row{
			Name:       names[i],
			Gamma:      evals[i].Gamma,
			PowerW:     evals[i].PowerW,
			GammaDelta: (evals[i].Gamma - ref.Gamma) / ref.Gamma,
			PowerDelta: (evals[i].PowerW - ref.PowerW) / ref.PowerW,
		})
	}
	return res, nil
}

// table builds the Fig. 9 comparison table.
func (r *Fig9Result) table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 9: SEUs and power of Exp:1-3 relative to Exp:4 (same scaling %v, SER 1e-9)", r.Scaling),
		Headers: []string{"Exp.", "Γ", "P, mW", "ΔΓ vs Exp:4", "ΔP vs Exp:4"},
	}
	for _, row := range r.Rows {
		t.AddRow(string(row.Name),
			fmt.Sprintf("%.3g", row.Gamma),
			fmt.Sprintf("%.2f", row.PowerW*1e3),
			fmt.Sprintf("%+.1f%%", row.GammaDelta*100),
			fmt.Sprintf("%+.1f%%", row.PowerDelta*100))
	}
	t.AddRow(string(Exp4),
		fmt.Sprintf("%.3g", r.Exp4.Gamma),
		fmt.Sprintf("%.2f", r.Exp4.PowerW*1e3), "reference", "reference")
	return t
}

// Render writes the paper-style table.
func (r *Fig9Result) Render(w io.Writer) { r.table().Render(w) }

// CSVTo writes the table as CSV.
func (r *Fig9Result) CSVTo(w io.Writer) { r.table().CSV(w) }
