package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// agendaFabrics are the fabrics the differential tests schedule on. The
// 6.4e9 bit/s links move 32 bits per cycle at 200 MHz, so an uncontended
// transfer takes exactly its cycle count at the fastest clock and the mesh
// hop is one 1000-cycle unit: transfer arrivals land on task boundaries,
// which is what makes same-timestamp batches common.
var agendaFabrics = []*arch.Interconnect{
	nil, // ideal point-to-point links
	{Topology: arch.TopologyBus, BandwidthBps: 6.4e9},
	{Topology: arch.TopologyBus, BandwidthBps: 6.4e9, HopLatencySec: 1e-4},
	{Topology: arch.TopologyMesh, BandwidthBps: 6.4e9, HopLatencySec: 5e-6},
}

// agendaPlatform builds a platform of the given cores on agendaFabrics[fabric]:
// homogeneous ARM7Levels3 when perf is nil, otherwise heterogeneous with core
// c on ARM7Levels4 when perf(c) and on ARM7Levels2 when not.
func agendaPlatform(cores, fabric int, perf func(c int) bool) *arch.Platform {
	var opts []arch.Option
	if icn := agendaFabrics[fabric]; icn != nil {
		opts = append(opts, arch.WithInterconnect(*icn))
	}
	var (
		p   *arch.Platform
		err error
	)
	if perf == nil {
		p, err = arch.NewPlatform(cores, arch.ARM7Levels3(), opts...)
	} else {
		types := []arch.ProcType{{Name: "eff", Levels: arch.ARM7Levels2()}, {Name: "perf", Levels: arch.ARM7Levels4()}}
		coreTypes := make([]int, cores)
		for c := range coreTypes {
			if perf(c) {
				coreTypes[c] = 1
			}
		}
		p, err = arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
	}
	if err != nil {
		panic(err)
	}
	return p
}

// coarseCopy rebuilds g's structure with task cycles 1000·{1,2,3} and edge
// cycles 1000·{0,1,2}: timestamps then coincide constantly and zero-cycle
// cross-core edges occur.
func coarseCopy(g *taskgraph.Graph, rng *rand.Rand) *taskgraph.Graph {
	b := taskgraph.NewBuilder(g.Name()+"-coarse", registers.NewInventory())
	for i := 0; i < g.N(); i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 1000*int64(1+rng.Intn(3)))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.From, e.To, 1000*int64(rng.Intn(3)))
	}
	return b.MustBuild()
}

// matchTokenAgenda binds scaling and schedules m on both sch and the
// token-per-edge reference (built for the same graph and platform) and fails
// unless they agree bit for bit: every Slot, the makespan, the summed
// transfer delay, each core's busy cycles and seconds, and the error on
// invalid input. sch's makespan-only form, whose early exit stops at a
// dispatch, must agree with the reference makespan at every task end time
// and just below it. It reports whether two tasks start at the same
// non-zero time, i.e. whether the schedule exercised a shared batch.
func matchTokenAgenda(t testing.TB, sch *Scheduler, ref *tokenScheduler, scaling []int, m Mapping) (coincident bool) {
	t.Helper()
	what := func() string {
		fabric := "ideal"
		if icn := sch.p.Interconnect(); icn != nil {
			fabric = fmt.Sprintf("%+v", *icn)
		}
		return fmt.Sprintf("graph %q (%d tasks) on %d cores, fabric %s, scaling %v, mapping %v",
			sch.g.Name(), sch.g.N(), sch.p.Cores(), fabric, scaling, m)
	}
	sameErr := func(stage string, got, want error) bool {
		t.Helper()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s: %s error %v, reference %v", what(), stage, got, want)
		}
		return got == nil
	}
	if !sameErr("bind", sch.Bind(scaling), ref.bind(scaling)) {
		return false
	}
	got, gotErr := sch.Schedule(m)
	want, wantErr := ref.schedule(m)
	if !sameErr("schedule", gotErr, wantErr) {
		return false
	}
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want.Slots {
		g, w := got.Slots[i], want.Slots[i]
		if g.Task != w.Task || g.Core != w.Core || !bitsEq(g.StartSec, w.StartSec) || !bitsEq(g.EndSec, w.EndSec) {
			t.Fatalf("%s: slot %d = %+v, reference %+v", what(), i, g, w)
		}
	}
	if !bitsEq(got.MakespanSeconds(), want.MakespanSeconds()) {
		t.Fatalf("%s: makespan %v, reference %v", what(), got.MakespanSeconds(), want.MakespanSeconds())
	}
	for c := range want.busyCycles {
		if got.BusyCycles(c) != want.BusyCycles(c) || !bitsEq(got.BusySeconds(c), want.BusySeconds(c)) {
			t.Fatalf("%s: core %d busy %d cycles / %v s, reference %d / %v", what(), c,
				got.BusyCycles(c), got.BusySeconds(c), want.BusyCycles(c), want.BusySeconds(c))
		}
	}
	starts := make(map[float64]bool, len(want.Slots))
	for _, s := range want.Slots {
		if s.StartSec > 0 && starts[s.StartSec] {
			coincident = true
		}
		starts[s.StartSec] = true
	}
	// The makespan-only form, at every distinct task end time and just
	// below each: exceeded exactly when the makespan passes the cutoff,
	// bit-exact within it, and past it a value in (cutoff, makespan] up to
	// the early exit's 1e-9 relative tolerance.
	ms := want.MakespanSeconds()
	seen := make(map[float64]bool, len(want.Slots))
	for _, s := range want.Slots {
		if seen[s.EndSec] {
			continue
		}
		seen[s.EndSec] = true
		for _, cutoff := range []float64{s.EndSec, math.Nextafter(s.EndSec, math.Inf(-1))} {
			tm, exceeded, err := sch.MakespanWithin(m, cutoff)
			if err != nil || exceeded != (ms > cutoff) ||
				(!exceeded && !bitsEq(tm, ms)) ||
				(exceeded && !(cutoff < tm && tm <= ms*(1+1e-9))) {
				t.Fatalf("%s: MakespanWithin(cutoff %v) = %v, %v, %v; reference makespan %v", what(), cutoff, tm, exceeded, err, ms)
			}
		}
	}
	return coincident
}

// TestScheduleMatchesTokenAgenda is the differential oracle for the
// one-event-per-task agenda: across random §V graphs (half rebuilt with
// coarse, tie-prone cycle counts), homogeneous and heterogeneous platforms
// of 1–16 cores and every test fabric, Scheduler must reproduce the
// token-per-edge reference bit for bit.
func TestScheduleMatchesTokenAgenda(t *testing.T) {
	const draws = 20
	graphs := 3000
	if testing.Short() {
		graphs = 600
	}
	rng := rand.New(rand.NewSource(15))
	schedules, coincident := 0, 0
	for gi := 0; gi < graphs; gi++ {
		cfg := taskgraph.DefaultRandomConfig(2 + rng.Intn(39))
		cfg.MaxWidth = 1 + rng.Intn(8)
		g := taskgraph.MustRandom(cfg, rng.Int63())
		if gi%2 == 1 {
			g = coarseCopy(g, rng)
		}
		cores := 1 + rng.Intn(16)
		var perf func(int) bool
		if rng.Intn(2) == 1 {
			types := rng.Perm(cores)
			perf = func(c int) bool { return types[c]%3 == 0 }
		}
		p := agendaPlatform(cores, rng.Intn(len(agendaFabrics)), perf)
		sch, ref := NewScheduler(g, p), newTokenScheduler(g, p)
		for d := 0; d < draws; d++ {
			scaling := p.MaxPowerScaling()
			if d%3 != 0 {
				for c := range scaling {
					scaling[c] = 1 + rng.Intn(p.CoreNumLevels(c))
				}
			}
			m := RandomMapping(rng, g.N(), cores)
			if matchTokenAgenda(t, sch, ref, scaling, m) {
				coincident++
			}
			schedules++
		}
		if gi%100 == 0 {
			// Invalid input must fail identically on both.
			bad := RandomMapping(rng, g.N(), cores)
			bad[rng.Intn(g.N())] = cores
			matchTokenAgenda(t, sch, ref, p.MaxPowerScaling(), bad)
			matchTokenAgenda(t, sch, ref, p.MaxPowerScaling(), bad[:g.N()-1])
			matchTokenAgenda(t, sch, ref, make([]int, cores), RoundRobin(g.N(), cores))
		}
	}
	t.Logf("%d schedules, %d with coincident start times", schedules, coincident)
	if coincident*4 < schedules {
		t.Fatalf("only %d of %d schedules have coincident start times; the inputs no longer exercise shared batches", coincident, schedules)
	}
}

// starGraph builds a root feeding k children, and with sink set one task
// joining them all, with task cycles 1000·{1,2,3} and edge cycles
// 1000·{0,…,3}: a fan-out that puts hundreds of events on the agenda at
// once, many of them at one timestamp.
func starGraph(k int, sink bool, rng *rand.Rand) *taskgraph.Graph {
	b := taskgraph.NewBuilder(fmt.Sprintf("star%d", k), registers.NewInventory())
	for i := 0; i <= k; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 1000*int64(1+rng.Intn(3)))
	}
	for i := 1; i <= k; i++ {
		b.AddEdge(0, taskgraph.TaskID(i), 1000*int64(rng.Intn(4)))
	}
	if sink {
		b.AddTask("sink", 1000)
		for i := 1; i <= k; i++ {
			b.AddEdge(taskgraph.TaskID(i), taskgraph.TaskID(k+1), 1000*int64(rng.Intn(4)))
		}
	}
	return b.MustBuild()
}

// TestScheduleMatchesTokenAgendaOnFanOuts holds the agenda's heap tier to
// the token-per-edge reference: stars of a few hundred children and §V
// graphs with 64–256-task layers, on 2–64 cores and every test fabric,
// pile up more pending events than the sorted front holds, so events spill
// to the heap and refill the front from it. Every star and three in four
// schedulers overall must have spilled.
func TestScheduleMatchesTokenAgendaOnFanOuts(t *testing.T) {
	legs := 24
	if testing.Short() {
		legs = 8
	}
	rng := rand.New(rand.NewSource(29))
	schedules, spilled := 0, 0
	for leg := 0; leg < legs; leg++ {
		var g *taskgraph.Graph
		if leg%2 == 0 {
			g = starGraph(200+rng.Intn(200), leg%4 == 0, rng)
		} else {
			cfg := taskgraph.DefaultRandomConfig(150 + rng.Intn(150))
			cfg.MaxWidth = 64 + rng.Intn(193)
			g = taskgraph.MustRandom(cfg, rng.Int63())
			if leg%4 == 3 {
				g = coarseCopy(g, rng)
			}
		}
		for fabric := range agendaFabrics {
			cores := 2 + rng.Intn(63)
			var perf func(int) bool
			if rng.Intn(2) == 1 {
				types := rng.Perm(cores)
				perf = func(c int) bool { return types[c]%3 == 0 }
			}
			p := agendaPlatform(cores, fabric, perf)
			sch, ref := NewScheduler(g, p), newTokenScheduler(g, p)
			for d := 0; d < 2; d++ {
				scaling := p.MaxPowerScaling()
				if d == 1 {
					for c := range scaling {
						scaling[c] = 1 + rng.Intn(p.CoreNumLevels(c))
					}
				}
				matchTokenAgenda(t, sch, ref, scaling, RandomMapping(rng, g.N(), cores))
				schedules++
			}
			// The heap keeps its capacity across calls, so a spill leaves
			// it non-zero. A star always spills.
			if cap(sch.heap) > 0 {
				spilled++
			} else if leg%2 == 0 {
				t.Fatalf("graph %q on %d cores, fabric %d: no event reached the heap", g.Name(), cores, fabric)
			}
		}
	}
	t.Logf("%d schedules; %d of %d schedulers spilled to the heap", schedules, spilled, legs*len(agendaFabrics))
	if spilled*4 < legs*len(agendaFabrics)*3 {
		t.Fatalf("only %d of %d schedulers spilled to the heap; the legs no longer exercise it", spilled, legs*len(agendaFabrics))
	}
}

// decodeAgendaCase turns fuzz bytes into a small scheduling problem: at most
// 12 tasks with edges only from lower to higher IDs (a DAG by construction),
// task cycles 1000·{1,2,3}, edge cycles 1000·{0,1,2,3}, at most 6 cores on
// one of agendaFabrics, homogeneous or heterogeneous, and a scaling and a
// mapping. Missing bytes read as zero.
func decodeAgendaCase(data []byte) (*taskgraph.Graph, *arch.Platform, []int, Mapping) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%12
	cores := 1 + next()%6
	kind := next()
	b := taskgraph.NewBuilder("fuzz", registers.NewInventory())
	for i := 0; i < n; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 1000*int64(1+next()%3))
	}
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if e := next(); e%2 == 1 {
				b.AddEdge(taskgraph.TaskID(from), taskgraph.TaskID(to), 1000*int64(e/2%4))
			}
		}
	}
	var perf func(int) bool
	if kind/len(agendaFabrics)%2 == 1 {
		types := make([]bool, cores)
		for c := range types {
			types[c] = next()%2 == 1
		}
		perf = func(c int) bool { return types[c] }
	}
	p := agendaPlatform(cores, kind%len(agendaFabrics), perf)
	scaling := make([]int, cores)
	for c := range scaling {
		scaling[c] = 1 + next()%p.CoreNumLevels(c)
	}
	m := make(Mapping, n)
	for t := range m {
		m[t] = next() % cores
	}
	return b.MustBuild(), p, scaling, m
}

// FuzzScheduleMatchesTokenAgenda holds the one-event-per-task agenda to the
// token-per-edge reference on fuzzed small problems.
func FuzzScheduleMatchesTokenAgenda(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 1, 2, 3})
	// A 7-task graph on 2 ideal-fabric cores in which task 3's last
	// producer completes in the same batch as, and ahead of, the transfer
	// that delivers task 3's last input: the ready event must join the
	// current batch, and pushing it to the heap instead starts task 3 one
	// task later.
	f.Add([]byte("B10102000000CC010000000000010001211"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, scaling, m := decodeAgendaCase(data)
		matchTokenAgenda(t, NewScheduler(g, p), newTokenScheduler(g, p), scaling, m)
	})
}
