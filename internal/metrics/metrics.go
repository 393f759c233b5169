// Package metrics evaluates a design point — a (mapping, scaling) pair for a
// task graph on an MPSoC platform — against the paper's analytic models:
//
//	R_i  per-core register usage, eq. (8): bits of the union of the register
//	     sets of the tasks mapped to core i (shared registers duplicated
//	     across cores);
//	T_i  per-core busy time, eq. (7): task cycles plus cross-core dependency
//	     cycles (from the list schedule);
//	Γ    expected SEUs experienced, eq. (3): Σ_i (R_i + baseline_i)·λ_i over
//	     the exposure window. Allocated register state persists for the whole
//	     multiprocessor execution (registers are not freed while the
//	     application runs), so every used core's exposure window is T_M; this
//	     is the mechanism behind the paper's concave Γ-vs-T_M trade-off
//	     (Fig. 3) and the Γ growth with core count (Table III) — more cores
//	     shorten T_M slower than they add exposed state;
//	P    dynamic power, eq. (5): C_L·Σ_i α_i·f_i·V_i²;
//	T_M  multiprocessor execution time (DAG makespan, or the pipelined
//	     streaming view for multi-iteration workloads), plus the paper's
//	     aggregate-frequency form of eq. (6) for comparison.
//
// This evaluator is the inner-loop cost function of both the proposed
// soft-error-aware mapper and the simulated-annealing baselines; the
// measured counterpart (cycle-level simulation + fault injection) lives in
// internal/sim and internal/faults.
package metrics

import (
	"fmt"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// Options tunes a design-point evaluation.
type Options struct {
	// Iterations is the number of stream iterations the task costs cover;
	// 1 means plain DAG semantics, taskgraph.MPEG2Frames for the decoder.
	Iterations int
	// DeadlineSec is the real-time constraint T_Mref; 0 disables the check.
	DeadlineSec float64
}

// CoreMetrics carries the per-core quantities of eqs. (3), (7), (8).
type CoreMetrics struct {
	Core         int
	RegBits      int64   // R_i, eq. (8)
	BaselineBits int64   // exposed baseline storage (caches + resident memory)
	BusyCycles   int64   // T_i, eq. (7)
	BusySec      float64 // T_i / f_i
	ExposureSec  float64 // SEU exposure window (T_M for used cores)
	LambdaPerSec float64 // λ_i(V_dd) in SEU/bit/second
	Lambda       float64 // λ_i in SEU/bit/cycle at this core's clock
	Gamma        float64 // (R_i+baseline)·ExposureSec·λ_sec
	Utilization  float64 // α_i
}

// Evaluation is the analytic assessment of one design point.
type Evaluation struct {
	Schedule *sched.Schedule
	PerCore  []CoreMetrics

	TotalRegBits  int64   // R = Σ_i R_i (the Table II "R" column)
	MakespanSec   float64 // single-iteration DAG makespan
	TMSeconds     float64 // deadline-relevant T_M (pipelined if Iterations>1)
	TMCycles      float64 // TMSeconds expressed in nominal-frequency cycles
	PowerW        float64 // eq. (5)
	Gamma         float64 // eq. (3), expected SEUs experienced
	MeetsDeadline bool
	DeadlineSec   float64
}

// Evaluate schedules g under (mapping, scaling) and evaluates the design
// point. ser must be a validated SER model.
//
// This is the one-shot convenience form: it builds a throwaway Evaluator, so
// the result is uniquely owned by the caller. Hot loops that evaluate
// thousands of mappings should hold an Evaluator and reuse it.
func Evaluate(g *taskgraph.Graph, p *arch.Platform, m sched.Mapping, scaling []int,
	ser faults.SERModel, opt Options) (*Evaluation, error) {
	e, err := NewEvaluator(g, p, ser, opt)
	if err != nil {
		return nil, err
	}
	if err := e.Bind(scaling); err != nil {
		return nil, err
	}
	return e.Evaluate(m)
}

// String renders a one-line summary of the evaluation.
func (ev *Evaluation) String() string {
	return fmt.Sprintf("P=%.3fmW R=%.1fkb T_M=%.3fs Γ=%.4g deadline=%v",
		ev.PowerW*1e3, float64(ev.TotalRegBits)/1024.0, ev.TMSeconds, ev.Gamma, ev.MeetsDeadline)
}
