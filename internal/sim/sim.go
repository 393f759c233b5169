// Package sim executes a mapped application on a cycle-level MPSoC model
// built on the desim discrete-event kernel — the stand-in for the paper's
// SystemC cycle-accurate simulation (§II-B).
//
// Each processing core is an engine clocked at its own DVS operating point.
// Inter-core tokens ride the platform's interconnect when one is declared:
// the same cut-through channel-reservation model as sched — a transfer
// holds every link of its XY (or bus) path, staggered by the hop latency,
// and contending transfers queue deterministically — carried out here in
// integer femtoseconds on the event kernel. Without an interconnect the
// ideal fabric applies: dedicated point-to-point links deliver each token
// with the edge's communication cycles at the slower endpoint's clock. The
// dispatch policy is identical to sched.ListSchedule — event-driven list
// scheduling by b-level — so for a single iteration the measured makespan
// equals the analytic one to clock-quantization error; this cross-validates
// kernel and scheduler against each other on both fabrics.
//
// Streaming workloads (the MPEG-2 decoder over its 437-frame bitstream) are
// simulated as a software pipeline: Config.Iterations splits every task and
// edge cost evenly across iterations, instance (t, k) depends on its graph
// predecessors of iteration k and on instance (t, k−1).
//
// The simulator's second product is the register liveness trace consumed by
// the fault injector, in two fidelities:
//
//   - ExposureConservative (paper model): every register allocated on a core
//     and the core's baseline storage hold live state for the whole run.
//   - ExposureLifetime (refinement/ablation): a register copy is live from
//     the start of its first using task to the end of its last; baseline
//     storage is live only while the core executes.
package sim

import (
	"fmt"
	"sort"

	"seadopt/internal/arch"
	"seadopt/internal/desim"
	"seadopt/internal/faults"
	"seadopt/internal/registers"
	"seadopt/internal/sched"
	"seadopt/internal/taskgraph"
)

// ExposureMode selects the liveness fidelity of the trace.
type ExposureMode int

const (
	// ExposureConservative matches the paper's eq. (3): allocated register
	// state persists for the whole multiprocessor execution.
	ExposureConservative ExposureMode = iota
	// ExposureLifetime tightens each register copy to its first-use..last-use
	// window (an ablation of the conservative model).
	ExposureLifetime
)

// String implements fmt.Stringer.
func (m ExposureMode) String() string {
	switch m {
	case ExposureConservative:
		return "conservative"
	case ExposureLifetime:
		return "lifetime"
	default:
		return fmt.Sprintf("ExposureMode(%d)", int(m))
	}
}

// Config tunes a simulation run.
type Config struct {
	// Iterations splits the task costs into a software pipeline of this many
	// stream iterations; 1 (or 0) simulates the plain DAG.
	Iterations int
}

// TaskEvent records one executed task instance.
type TaskEvent struct {
	Task      taskgraph.TaskID
	Iteration int
	Core      int
	Start     desim.Time
	End       desim.Time
}

// Result carries everything a simulation produced.
type Result struct {
	Graph   *taskgraph.Graph
	Mapping sched.Mapping
	Scaling []int

	MakespanSec float64
	Events      []TaskEvent
	coreBusyFs  []desim.Time // summed execution time per core
	periods     []desim.Time // clock period per core
	freqHz      []float64
	vdd         []float64
	platform    *arch.Platform
	kernel      *desim.Kernel
}

// instance identifies one (task, iteration) execution.
type instance struct {
	task taskgraph.TaskID
	iter int
}

// Run simulates g mapped by m at the given scaling on platform p.
func Run(g *taskgraph.Graph, p *arch.Platform, m sched.Mapping, scaling []int, cfg Config) (*Result, error) {
	if err := m.Validate(g, p.Cores()); err != nil {
		return nil, err
	}
	if err := p.ValidScaling(scaling); err != nil {
		return nil, err
	}
	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}

	n := g.N()
	k := desim.NewKernel()
	res := &Result{
		Graph:      g,
		Mapping:    m.Clone(),
		Scaling:    append([]int(nil), scaling...),
		coreBusyFs: make([]desim.Time, p.Cores()),
		periods:    make([]desim.Time, p.Cores()),
		freqHz:     make([]float64, p.Cores()),
		vdd:        make([]float64, p.Cores()),
		platform:   p,
		kernel:     k,
	}
	for c, s := range scaling {
		level := p.MustCoreLevel(c, s)
		period, err := desim.PeriodOf(level.FreqHz())
		if err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", c, err)
		}
		res.periods[c] = period
		res.freqHz[c] = level.FreqHz()
		res.vdd[c] = level.Vdd
	}

	bl := g.BLevels()

	// Interconnect state: per-link drain times for arch.Reserve, the
	// cut-through reservation rule the list scheduler applies in seconds,
	// here in integer femtoseconds over the platform's route table. No link
	// drains after lastArrive, the latest arrival Reserve has returned.
	icn, routes := p.Interconnect(), p.Routes()
	var (
		linkBusy   []desim.Time
		hopFs      desim.Time
		lastArrive desim.Time
	)
	if icn != nil {
		linkBusy = make([]desim.Time, icn.NumLinks())
		var err error
		if hopFs, err = desim.ToTime(icn.HopLatencySec); err != nil {
			return nil, fmt.Errorf("sim: hop latency: %w", err)
		}
	}

	// after schedules fn delay from now unless err (or an earlier error)
	// is set: a run whose time would leave desim's range schedules nothing
	// more once a product or sum would, and returns that error.
	var runErr error
	after := func(delay desim.Time, err error, fn func()) {
		if err == nil && runErr == nil {
			err = k.After(delay, fn)
		}
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("sim: %w", err)
		}
	}

	// Per-instance bookkeeping. Instance (t, k) waits on its graph
	// predecessors of iteration k plus, for k > 0, instance (t, k−1).
	idx := func(in instance) int { return in.iter*n + int(in.task) }
	remaining := make([]int, n*iters)
	for it := 0; it < iters; it++ {
		for t := 0; t < n; t++ {
			deps := len(g.Preds(taskgraph.TaskID(t)))
			if it > 0 {
				deps++
			}
			remaining[it*n+t] = deps
		}
	}

	// Cost splitting: iteration k of a cost C gets C/iters cycles, with the
	// first C%iters iterations taking one extra cycle, so Σ = C exactly.
	share := func(total int64, it int) int64 {
		base := total / int64(iters)
		if int64(it) < total%int64(iters) {
			base++
		}
		return base
	}

	type coreEngine struct {
		busy bool
		pool []instance
	}
	engines := make([]coreEngine, p.Cores())

	// Dispatch is deferred with a zero-delay event so that every state
	// change at the current timestamp (completions, token arrivals) is
	// visible before a core picks its next task — the same-time batching
	// semantics of sched.ListSchedule.
	var dispatch func(core int)
	deferDispatch := func(core int) { after(0, nil, func() { dispatch(core) }) }

	onFinish := func(in instance, core int) {
		// Successor tokens: same-core (or zero-cost) dependencies release
		// immediately; cross-core tokens ride the dedicated link for the
		// edge's share of communication cycles at the slower clock.
		release := func(target instance) {
			i := idx(target)
			remaining[i]--
			if remaining[i] == 0 {
				tc := res.Mapping[target.task]
				engines[tc].pool = append(engines[tc].pool, target)
				deferDispatch(tc)
			}
		}
		for _, e := range g.Succs(in.task) {
			target := instance{e.To, in.iter}
			commCycles := share(e.Cycles, in.iter)
			if res.Mapping[e.To] == core || commCycles == 0 {
				release(target)
				continue
			}
			tgt := target
			var (
				delay desim.Time
				err   error
			)
			if icn != nil {
				// Reserve the XY/bus route and deliver at the (possibly
				// contended) arrival time. Reserve starts the transfer by
				// the later of now and lastArrive, and no time it computes
				// passes that start plus hops·hop + ser: check that first.
				dst := res.Mapping[e.To]
				var serFs, path desim.Time
				if serFs, err = desim.ToTime(icn.MessageBits(commCycles) / icn.BandwidthBps); err == nil {
					if path, err = desim.Mul(int64(icn.Hops(core, dst)), hopFs); err == nil {
						_, err = desim.Sum(max(k.Now(), lastArrive), path, serFs)
					}
				}
				if err == nil {
					arrive := arch.Reserve(routes, linkBusy, core, dst, k.Now(), hopFs, serFs)
					lastArrive = max(lastArrive, arrive)
					delay = arrive - k.Now()
				}
			} else {
				slow := res.periods[core]
				if pd := res.periods[res.Mapping[e.To]]; pd > slow {
					slow = pd
				}
				delay, err = desim.Mul(commCycles, slow)
			}
			after(delay, err, func() { release(tgt) })
		}
		if in.iter+1 < iters {
			release(instance{in.task, in.iter + 1})
		}
	}

	dispatch = func(core int) {
		eng := &engines[core]
		if eng.busy || len(eng.pool) == 0 {
			return
		}
		best := 0
		for i := 1; i < len(eng.pool); i++ {
			a, b := eng.pool[i], eng.pool[best]
			// Oldest iteration first (software pipelines drain the oldest
			// frame before advancing), then highest b-level, then lowest
			// TaskID. For a single iteration this is exactly the
			// sched.ListSchedule policy.
			switch {
			case a.iter != b.iter:
				if a.iter < b.iter {
					best = i
				}
			case bl[a.task] != bl[b.task]:
				if bl[a.task] > bl[b.task] {
					best = i
				}
			case a.task < b.task:
				best = i
			}
		}
		in := eng.pool[best]
		eng.pool = append(eng.pool[:best], eng.pool[best+1:]...)
		eng.busy = true
		cycles := share(g.Task(in.task).Cycles, in.iter)
		dur, err := desim.Mul(cycles, res.periods[core])
		start := k.Now()
		res.coreBusyFs[core] += dur
		after(dur, err, func() {
			res.Events = append(res.Events, TaskEvent{
				Task: in.task, Iteration: in.iter, Core: core,
				Start: start, End: k.Now(),
			})
			eng.busy = false
			onFinish(in, core)
			deferDispatch(core)
		})
	}

	// Seed iteration 0 roots.
	for t := 0; t < n; t++ {
		if remaining[t] == 0 {
			engines[m[t]].pool = append(engines[m[t]].pool, instance{taskgraph.TaskID(t), 0})
		}
	}
	for c := range engines {
		dispatch(c)
	}

	end := k.Run()
	if runErr != nil {
		return nil, runErr
	}
	if len(res.Events) != n*iters {
		return nil, fmt.Errorf("sim: deadlock — %d of %d task instances executed", len(res.Events), n*iters)
	}
	res.MakespanSec = end.Seconds()
	return res, nil
}

// EventsFired exposes the kernel's event count (simulation effort metric).
func (r *Result) EventsFired() uint64 { return r.kernel.EventsFired() }

// Utilization returns per-core busy fraction of the measured makespan.
func (r *Result) Utilization() []float64 {
	out := make([]float64, len(r.coreBusyFs))
	if r.MakespanSec <= 0 {
		return out
	}
	for c, b := range r.coreBusyFs {
		out[c] = b.Seconds() / r.MakespanSec
	}
	return out
}

// localCycles converts a femtosecond duration to core-local clock cycles.
func (r *Result) localCycles(c int, d desim.Time) int64 {
	if r.periods[c] <= 0 {
		return 0
	}
	return int64(d) / int64(r.periods[c])
}

// BaselineLabel is the exposure label of a core's baseline storage.
const BaselineLabel = "baseline"

// Liveness builds the register liveness trace of the run at the requested
// fidelity. Timestamps are in each owning core's local clock cycles.
func (r *Result) Liveness(mode ExposureMode) (*registers.Liveness, error) {
	lv := registers.NewLiveness()
	horizon := desim.FromSeconds(r.MakespanSec)
	usedCores := make(map[int]bool)
	for _, c := range r.Mapping {
		usedCores[c] = true
	}
	switch mode {
	case ExposureConservative:
		coreTasks := r.Mapping.CoreTasks(len(r.coreBusyFs))
		for c, tasks := range coreTasks {
			if len(tasks) == 0 {
				continue
			}
			end := r.localCycles(c, horizon)
			if end <= 0 {
				continue
			}
			set := r.Graph.UnionRegisters(tasks)
			for _, reg := range set.IDs() {
				if err := lv.MarkLive(c, reg, 0, end); err != nil {
					return nil, err
				}
			}
		}
	case ExposureLifetime:
		// First-use .. last-use per (core, register); baseline per busy slot.
		type key struct {
			core int
			reg  string
		}
		first := make(map[key]desim.Time)
		last := make(map[key]desim.Time)
		for _, ev := range r.Events {
			for reg := range r.Graph.Task(ev.Task).Registers {
				kk := key{ev.Core, reg}
				if cur, ok := first[kk]; !ok || ev.Start < cur {
					first[kk] = ev.Start
				}
				if cur, ok := last[kk]; !ok || ev.End > cur {
					last[kk] = ev.End
				}
			}
		}
		for kk, s := range first {
			e := last[kk]
			startCyc := r.localCycles(kk.core, s)
			endCyc := r.localCycles(kk.core, e)
			if endCyc <= startCyc {
				endCyc = startCyc + 1
			}
			if err := lv.MarkLive(kk.core, kk.reg, startCyc, endCyc); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("sim: unknown exposure mode %v", mode)
	}
	return lv, nil
}

// baselineItems returns the baseline-storage exposure per used core.
func (r *Result) baselineItems(mode ExposureMode) []faults.ExposureItem {
	var items []faults.ExposureItem
	bits := r.platform.BaselineBits()
	if bits == 0 {
		return nil
	}
	horizon := desim.FromSeconds(r.MakespanSec)
	used := make(map[int]bool)
	for _, c := range r.Mapping {
		used[c] = true
	}
	cores := make([]int, 0, len(used))
	for c := range used {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		var cyc int64
		if mode == ExposureConservative {
			cyc = r.localCycles(c, horizon)
		} else {
			cyc = r.localCycles(c, r.coreBusyFs[c])
		}
		if cyc > 0 {
			items = append(items, faults.ExposureItem{Core: c, Label: BaselineLabel, Bits: bits, Cycles: cyc})
		}
	}
	return items
}

// Campaign assembles the fault-injection campaign for the run: exposure
// items from the liveness trace plus baseline storage, per-core λ at each
// core's own (V_dd, f), and the raw injection domain (full register space
// over the whole run).
func (r *Result) Campaign(ser faults.SERModel, mode ExposureMode) (*faults.Campaign, error) {
	if err := ser.Validate(); err != nil {
		return nil, err
	}
	lv, err := r.Liveness(mode)
	if err != nil {
		return nil, err
	}
	inv := r.Graph.Inventory()
	c := &faults.Campaign{
		Lambda:        make([]float64, len(r.periods)),
		SpaceBits:     make([]int64, len(r.periods)),
		HorizonCycles: make([]int64, len(r.periods)),
	}
	horizon := desim.FromSeconds(r.MakespanSec)
	for core := range r.periods {
		c.Lambda[core] = ser.RatePerCycle(r.vdd[core], r.freqHz[core])
		c.HorizonCycles[core] = r.localCycles(core, horizon)
	}
	coreTasks := r.Mapping.CoreTasks(len(r.periods))
	for core, tasks := range coreTasks {
		if len(tasks) == 0 {
			continue
		}
		set := r.Graph.UnionRegisters(tasks)
		c.SpaceBits[core] = inv.SetBits(set) + r.platform.BaselineBits()
		for _, reg := range set.IDs() {
			cycles := lv.LiveCycles(core, reg)
			if cycles > 0 {
				c.Items = append(c.Items, faults.ExposureItem{
					Core: core, Label: reg, Bits: inv.Bits(reg), Cycles: cycles,
				})
			}
		}
	}
	c.Items = append(c.Items, r.baselineItems(mode)...)
	return c, nil
}

// MeasureGamma runs a fault-injection campaign over the simulated trace and
// returns the measured number of SEUs experienced plus its analytic
// expectation.
func (r *Result) MeasureGamma(ser faults.SERModel, mode ExposureMode, seed int64) (measured int64, expected float64, err error) {
	c, err := r.Campaign(ser, mode)
	if err != nil {
		return 0, 0, err
	}
	res, err := c.Run(newRand(seed))
	if err != nil {
		return 0, 0, err
	}
	return res.TotalExperienced(), res.TotalExpected(), nil
}

// PressureProfile returns each core's register pressure over time: the
// average live bits in each of nBuckets equal windows of the run, under the
// given exposure fidelity. Rows are indexed by core.
func (r *Result) PressureProfile(mode ExposureMode, nBuckets int) ([][]float64, error) {
	lv, err := r.Liveness(mode)
	if err != nil {
		return nil, err
	}
	inv := r.Graph.Inventory()
	horizon := desim.FromSeconds(r.MakespanSec)
	out := make([][]float64, len(r.periods))
	for c := range r.periods {
		out[c] = lv.Profile(inv, c, r.localCycles(c, horizon), nBuckets)
		if out[c] == nil {
			out[c] = make([]float64, nBuckets)
		}
	}
	return out, nil
}
