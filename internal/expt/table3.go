package expt

import (
	"fmt"
	"io"

	"seadopt/internal/arch"
	"seadopt/internal/mapping"
	"seadopt/internal/taskgraph"
)

// TableIIICell is one (application, core count) design of the architecture
// allocation study.
type TableIIICell struct {
	Cores  int
	PowerW float64
	Gamma  float64
	Design *mapping.Design
}

// TableIIIApp is one application row of Table III.
type TableIIIApp struct {
	Name  string
	Cells []TableIIICell // cores 2..6
}

// TableIIIResult reproduces Table III: power and SEUs of the proposed
// optimization across architecture allocations (2-6 cores) for the MPEG-2
// decoder and the random task graphs of 20-100 tasks.
type TableIIIResult struct {
	Apps []TableIIIApp
}

// tableIIIWorkload describes one Table III application row.
type tableIIIWorkload struct {
	name       string
	graph      *taskgraph.Graph
	deadline   float64
	iterations int
}

// tableIIIWorkloads builds the paper's application set: MPEG-2 plus random
// graphs of 20..100 tasks with the §V parameterization and deadlines.
func tableIIIWorkloads(cfg Config) []tableIIIWorkload {
	w := []tableIIIWorkload{{
		name:       "MPEG-2",
		graph:      taskgraph.MPEG2(),
		deadline:   taskgraph.MPEG2Deadline,
		iterations: taskgraph.MPEG2Frames,
	}}
	for _, n := range []int{20, 40, 60, 80, 100} {
		w = append(w, tableIIIWorkload{
			name:       fmt.Sprintf("%d tasks", n),
			graph:      taskgraph.MustRandom(taskgraph.DefaultRandomConfig(n), cfg.Seed+int64(n)),
			deadline:   taskgraph.RandomDeadline(n),
			iterations: 1,
		})
	}
	return w
}

// TableIIICores is the architecture allocation sweep of Table III.
var TableIIICores = []int{2, 3, 4, 5, 6}

// TableIII runs the proposed optimization (Exp:4) for every application on
// MPSoCs of two to six cores. Each cell is one Explore driven by the
// concurrent exploration engine (cfg.Parallelism workers over the scaling
// combinations); results are deterministic because every cell derives its
// own seeds from cfg.Seed and the engine's reduction is order-independent.
func TableIII(cfg Config) (*TableIIIResult, error) {
	cfg = cfg.withDefaults()
	workloads := tableIIIWorkloads(cfg)
	res := &TableIIIResult{Apps: make([]TableIIIApp, len(workloads))}

	for a := range workloads {
		res.Apps[a].Name = workloads[a].name
		res.Apps[a].Cells = make([]TableIIICell, len(TableIIICores))
	}
	for a, wl := range workloads {
		for ci, cores := range TableIIICores {
			p, err := arch.NewPlatform(cores, arch.ARM7Levels3())
			if err != nil {
				return nil, err
			}
			mcfg := mapping.Config{
				SER:         cfg.serModel(),
				DeadlineSec: wl.deadline,
				Iterations:  wl.iterations,
				SearchMoves: cfg.SearchMoves,
				Seed:        cfg.Seed + int64(a)*101 + int64(cores),
				Parallelism: cfg.Parallelism,
				Strategy:    mapping.StrategyExhaustive, // paper tables stay exhaustive
			}
			best, err := mapping.Explore(wl.graph, p, mapping.SEAMapper(mcfg), mcfg)
			if err != nil {
				return nil, fmt.Errorf("expt: table3 %s/%d cores: %w", wl.name, cores, err)
			}
			res.Apps[a].Cells[ci] = TableIIICell{
				Cores:  cores,
				PowerW: best.Eval.PowerW,
				Gamma:  best.Eval.Gamma,
				Design: best,
			}
		}
	}
	return res, nil
}

// table builds the paper-style Table III.
func (r *TableIIIResult) table() *Table {
	headers := []string{"App."}
	for _, c := range TableIIICores {
		headers = append(headers, fmt.Sprintf("%dC P,mW", c), fmt.Sprintf("%dC Γ", c))
	}
	t := &Table{
		Title:   "Table III: power and SEUs experienced vs architecture allocation (proposed optimization)",
		Headers: headers,
	}
	for _, app := range r.Apps {
		row := []string{app.Name}
		for _, cell := range app.Cells {
			row = append(row,
				fmt.Sprintf("%.2f", cell.PowerW*1e3),
				fmt.Sprintf("%.3g", cell.Gamma))
		}
		t.AddRow(row...)
	}
	return t
}

// Render writes the paper-style table.
func (r *TableIIIResult) Render(w io.Writer) { r.table().Render(w) }

// CSVTo writes the table as CSV.
func (r *TableIIIResult) CSVTo(w io.Writer) { r.table().CSV(w) }
