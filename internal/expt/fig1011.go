package expt

import (
	"fmt"
	"io"

	"seadopt/internal/anneal"
	"seadopt/internal/arch"
	"seadopt/internal/mapping"
	"seadopt/internal/taskgraph"
)

// Fig10Point compares Exp:3 and Exp:4 at one architecture allocation.
type Fig10Point struct {
	Cores      int
	Exp4PowerW float64
	Exp4Gamma  float64
	Exp3PowerW float64
	Exp3Gamma  float64
}

// Fig10Result reproduces Fig. 10: power and SEUs of the proposed
// optimization vs the joint R×T_M baseline on the 60-task random graph
// across 2-6 cores.
type Fig10Result struct {
	Points []Fig10Point
}

// fig10Workload returns the 60-task random graph and its deadline.
func fig10Workload(cfg Config) (*taskgraph.Graph, float64) {
	return taskgraph.MustRandom(taskgraph.DefaultRandomConfig(60), cfg.Seed+60),
		taskgraph.RandomDeadline(60)
}

// Fig10 runs both optimizations at every allocation of TableIIICores. Each
// Explore fans its scaling combinations out on the engine's worker pool
// (cfg.Parallelism), and Exp:4 and Exp:3 share one feasibility-probe cache
// per allocation, so the mapper-independent deadline probe runs once per
// scaling instead of once per experiment.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	g, deadline := fig10Workload(cfg)
	res := &Fig10Result{Points: make([]Fig10Point, len(TableIIICores))}

	for ci, cores := range TableIIICores {
		p, err := arch.NewPlatform(cores, arch.ARM7Levels3())
		if err != nil {
			return nil, err
		}
		mcfg := mapping.Config{
			SER:         cfg.serModel(),
			DeadlineSec: deadline,
			Iterations:  1,
			SearchMoves: cfg.SearchMoves,
			Seed:        cfg.Seed + int64(cores),
			Parallelism: cfg.Parallelism,
			Reuse:       mapping.NewReuse(),
			Strategy:    mapping.StrategyExhaustive, // paper tables stay exhaustive
		}
		best4, err := mapping.Explore(g, p, mapping.SEAMapper(mcfg), mcfg)
		if err != nil {
			return nil, fmt.Errorf("expt: fig10 exp4 %d cores: %w", cores, err)
		}
		acfg := anneal.Config{
			Objective:   anneal.ObjectiveRegTimeProduct,
			SER:         mcfg.SER,
			DeadlineSec: deadline,
			Iterations:  1,
			Moves:       cfg.AnnealMoves,
		}
		best3, err := mapping.Explore(g, p, anneal.Mapper(acfg), mcfg)
		if err != nil {
			return nil, fmt.Errorf("expt: fig10 exp3 %d cores: %w", cores, err)
		}
		res.Points[ci] = Fig10Point{
			Cores:      cores,
			Exp4PowerW: best4.Eval.PowerW,
			Exp4Gamma:  best4.Eval.Gamma,
			Exp3PowerW: best3.Eval.PowerW,
			Exp3Gamma:  best3.Eval.Gamma,
		}
	}
	return res, nil
}

// table builds the Fig. 10 comparison series.
func (r *Fig10Result) table() *Table {
	t := &Table{
		Title: "Fig. 10: P and Γ, Exp:3 vs Exp:4, random 60-task graph, 2-6 cores",
		Headers: []string{"Cores", "Exp:4 P,mW", "Exp:3 P,mW", "ΔP",
			"Exp:4 Γ", "Exp:3 Γ", "ΔΓ (Exp:4 vs Exp:3)"},
	}
	for _, pt := range r.Points {
		t.AddRow(fmt.Sprintf("%d", pt.Cores),
			fmt.Sprintf("%.2f", pt.Exp4PowerW*1e3),
			fmt.Sprintf("%.2f", pt.Exp3PowerW*1e3),
			pct(pt.Exp4PowerW, pt.Exp3PowerW),
			fmt.Sprintf("%.3g", pt.Exp4Gamma),
			fmt.Sprintf("%.3g", pt.Exp3Gamma),
			pct(pt.Exp4Gamma, pt.Exp3Gamma))
	}
	return t
}

// Render writes the paper-style table.
func (r *Fig10Result) Render(w io.Writer) { r.table().Render(w) }

// CSVTo writes the table as CSV.
func (r *Fig10Result) CSVTo(w io.Writer) { r.table().CSV(w) }

// Fig11Point is one voltage-scaling-level configuration of Fig. 11.
type Fig11Point struct {
	Levels int
	PowerW float64
	Gamma  float64
	Design *mapping.Design
}

// Fig11Result reproduces Fig. 11: power and SEUs of the proposed
// optimization with 2-, 3- and 4-level DVS tables on the 60-task random
// graph with six cores.
type Fig11Result struct {
	Points []Fig11Point
}

// Fig11 sweeps the DVS level tables of arch.ARM7LevelsFor.
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	g, deadline := fig10Workload(cfg)
	res := &Fig11Result{}
	for _, nLevels := range []int{2, 3, 4} {
		levels, err := arch.ARM7LevelsFor(nLevels)
		if err != nil {
			return nil, err
		}
		p, err := arch.NewPlatform(6, levels)
		if err != nil {
			return nil, err
		}
		mcfg := mapping.Config{
			SER:         cfg.serModel(),
			DeadlineSec: deadline,
			Iterations:  1,
			SearchMoves: cfg.SearchMoves,
			Seed:        cfg.Seed + int64(nLevels)*1000,
			Parallelism: cfg.Parallelism,
			Strategy:    mapping.StrategyExhaustive, // paper tables stay exhaustive
		}
		best, err := mapping.Explore(g, p, mapping.SEAMapper(mcfg), mcfg)
		if err != nil {
			return nil, fmt.Errorf("expt: fig11 %d levels: %w", nLevels, err)
		}
		res.Points = append(res.Points, Fig11Point{
			Levels: nLevels,
			PowerW: best.Eval.PowerW,
			Gamma:  best.Eval.Gamma,
			Design: best,
		})
	}
	return res, nil
}

// table builds the level sweep with the 3-level configuration as the
// reference, matching the paper's narrative.
func (r *Fig11Result) table() *Table {
	t := &Table{
		Title:   "Fig. 11: P and Γ vs number of voltage scaling levels (random 60-task graph, 6 cores)",
		Headers: []string{"Levels", "P, mW", "Γ", "ΔP vs 3 levels", "ΔΓ vs 3 levels"},
	}
	var ref *Fig11Point
	for i := range r.Points {
		if r.Points[i].Levels == 3 {
			ref = &r.Points[i]
		}
	}
	for _, pt := range r.Points {
		dp, dg := "reference", "reference"
		if ref != nil && pt.Levels != 3 {
			dp = pct(pt.PowerW, ref.PowerW)
			dg = pct(pt.Gamma, ref.Gamma)
		}
		t.AddRow(fmt.Sprintf("%d", pt.Levels),
			fmt.Sprintf("%.2f", pt.PowerW*1e3),
			fmt.Sprintf("%.3g", pt.Gamma), dp, dg)
	}
	return t
}

// Render writes the paper-style table.
func (r *Fig11Result) Render(w io.Writer) { r.table().Render(w) }

// CSVTo writes the table as CSV.
func (r *Fig11Result) CSVTo(w io.Writer) { r.table().CSV(w) }
