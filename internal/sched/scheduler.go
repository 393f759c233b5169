package sched

import (
	"fmt"
	"math"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// agendaEvent is one entry of the scheduler's time-ordered agenda: a task
// completion, or a task becoming ready once its last input is delivered.
// A task gets at most one ready event, not one event per incoming edge: a
// completion settles each successor's input at once and keeps, per task,
// the key its latest input is delivered under (see Schedule).
type agendaEvent struct {
	at     float64
	seq    int
	isStop bool             // task completion (vs task ready)
	task   taskgraph.TaskID // completing or ready task
}

// agendaLess is the agenda's strict total order: earliest timestamp first,
// insertion sequence breaking ties. seq is unique, so the minimum is unique
// and any correct priority queue yields the same event order — the agenda
// heap below pops events in exactly the sequence a linear min-scan would.
// The same order ranks a task's inputs: the one that completes them is the
// maximum.
func agendaLess(a, b agendaEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Scheduler is a reusable list scheduler pinned to a (graph, platform) pair.
// Bind selects the per-core scaling vector; Schedule then list-schedules any
// mapping without allocating: every internal buffer (agenda, ready pools,
// predecessor counts) and the output Schedule itself are reused across calls.
//
// The returned *Schedule is BORROWED — it stays valid only until the next
// Schedule or Bind call on this Scheduler. Callers that retain a schedule
// across calls must Clone it. The one-shot ListSchedule wrapper keeps the
// old allocate-per-call contract for code outside the hot path.
//
// A Scheduler is not safe for concurrent use; the exploration engine gives
// each worker its own (via metrics.Evaluator).
type Scheduler struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	bl  []int64            // b-level priorities, graph-constant
	icn *arch.Interconnect // nil = ideal point-to-point links

	scaling []int
	freq    []float64

	// Scratch reused across Schedule calls. agenda is a binary min-heap
	// ordered by agendaLess. inputs holds, per task, the ready event keyed
	// by its latest input delivered so far. linkBusy tracks, per directed
	// fabric link, when the last reserved transfer drains; linkPath is the
	// routing scratch.
	remainingPreds []int
	inputs         []agendaEvent
	agenda         []agendaEvent
	batch          []agendaEvent
	pools          [][]taskgraph.TaskID
	coreBusy       []bool
	touched        []bool
	touchedList    []int
	linkBusy       []float64
	linkPath       []int

	out Schedule
}

// NewScheduler builds a scheduler for g on p. Bind must be called before
// Schedule.
func NewScheduler(g *taskgraph.Graph, p *arch.Platform) *Scheduler {
	n := g.N()
	cores := p.Cores()
	s := &Scheduler{
		g:              g,
		p:              p,
		bl:             g.BLevels(),
		icn:            p.Interconnect(),
		scaling:        make([]int, cores),
		freq:           make([]float64, cores),
		remainingPreds: make([]int, n),
		inputs:         make([]agendaEvent, n),
		pools:          make([][]taskgraph.TaskID, cores),
		coreBusy:       make([]bool, cores),
		touched:        make([]bool, cores),
		touchedList:    make([]int, 0, cores),
	}
	if s.icn != nil {
		s.linkBusy = make([]float64, s.icn.NumLinks())
	}
	s.out = Schedule{
		Graph:      g,
		Mapping:    make(Mapping, n),
		Scaling:    s.scaling,
		Slots:      make([]Slot, n),
		busyCycles: make([]int64, cores),
		busySec:    make([]float64, cores),
		freqHz:     s.freq,
		icn:        s.icn,
	}
	return s
}

// transferArrival reserves the fabric links of a src→dst transfer of the
// given communication cycles issued at now, and returns its arrival time.
// Cut-through channel reservation: the transfer starts once every link on
// its path is free of earlier traffic by the time its head word gets there
// (link i is entered i hop-latencies after the start), then holds each
// link for the serialization time bits/bandwidth. Uncontended this is
// exactly hops·HopLatencySec + bits/BandwidthBps; contention only delays
// the start. Transfers are issued while draining agenda events in strict
// (time, seq) order, so reservation order — and therefore who queues
// behind whom — is deterministic.
func (s *Scheduler) transferArrival(src, dst int, cycles int64, now float64) float64 {
	ic := s.icn
	ser := ic.MessageBits(cycles) / ic.BandwidthBps
	lat := ic.HopLatencySec
	s.linkPath = ic.PathLinks(src, dst, s.linkPath[:0])
	start := now
	for i, l := range s.linkPath {
		if t := s.linkBusy[l] - float64(i)*lat; t > start {
			start = t
		}
	}
	for i, l := range s.linkPath {
		s.linkBusy[l] = start + float64(i)*lat + ser
	}
	return start + float64(len(s.linkPath))*lat + ser
}

// Graph returns the pinned task graph.
func (s *Scheduler) Graph() *taskgraph.Graph { return s.g }

// Platform returns the pinned platform.
func (s *Scheduler) Platform() *arch.Platform { return s.p }

// Bind selects the scaling vector for subsequent Schedule calls. It
// invalidates any borrowed Schedule previously returned.
func (s *Scheduler) Bind(scaling []int) error {
	if err := s.p.ValidScaling(scaling); err != nil {
		return err
	}
	copy(s.scaling, scaling)
	for i, lv := range s.scaling {
		s.freq[i] = s.p.MustCoreLevel(i, lv).FreqHz()
	}
	return nil
}

// BindDelta rebinds only the cores whose coefficient differs from the
// currently bound vector, appending their indices to changed (typically a
// reused buffer) and returning the extended slice. It requires a prior
// successful Bind; per-core frequency work is done only for the changed
// cores, so a near-identical successor vector costs O(changed) float math
// (the diff itself is an O(cores) integer scan). Validation happens before
// any state is touched, so on error the binding is unchanged. Like Bind, it
// invalidates any borrowed Schedule.
func (s *Scheduler) BindDelta(next []int, changed []int) ([]int, error) {
	if s.freq[0] == 0 {
		return changed, fmt.Errorf("sched: BindDelta called before Bind")
	}
	if len(next) != len(s.scaling) {
		return changed, fmt.Errorf("sched: scaling vector has %d entries, platform has %d cores", len(next), len(s.scaling))
	}
	for c, v := range next {
		if v == s.scaling[c] {
			continue
		}
		if _, err := s.p.CoreLevel(c, v); err != nil {
			return changed, err
		}
	}
	for c, v := range next {
		if v == s.scaling[c] {
			continue
		}
		s.scaling[c] = v
		s.freq[c] = s.p.MustCoreLevel(c, v).FreqHz()
		changed = append(changed, c)
	}
	return changed, nil
}

// Scaling returns the bound scaling vector. The slice is shared; do not
// mutate.
func (s *Scheduler) Scaling() []int { return s.scaling }

// Schedule list-schedules mapping m at the bound scaling, using exactly the
// dispatch policy of ListSchedule (highest b-level first, TaskID tie break).
// The result is borrowed; see the type comment.
//
// The simulation pops the agenda one timestamp at a time: the events at the
// earliest pending time form a batch, processed in seq order, and only then
// do the cores the batch touched dispatch, so a completion and a ready
// event at the same time see each other.
//
// A completion settles its successors' inputs at once instead of pushing
// an arrival event per cross-core edge. Per successor it decrements the
// count of missing inputs and records the key the input is delivered
// under: the completion's own (now, seq) for a same-core or zero-cycle
// edge, and (arrival, seq) for a cross-core transfer. The transfer's seq is
// drawn from the agenda counter as if the transfer were pushed, so the
// counter advances once per transfer and every event that is pushed carries
// the seq it has in the token-per-edge reference scheduler the tests hold
// this one to. The input that completes a task is its maximum key, known
// once the count reaches zero:
//
//   - the completion's own key: the task is ready now;
//   - (now, seq) with seq below the counter's value when the batch was
//     popped: the reference pops that arrival later in the current batch,
//     so the ready event is inserted into the batch at its seq position.
//     On the heap it would pop in the next batch at the same time, and a
//     core touched in this batch would dispatch without the task;
//   - any other key: one ready event under that key goes on the heap.
//
// Every pushed event keeps the reference's key, batch and position, so the
// dispatch sequence is the reference's, and with it every Slot, the
// makespan, CommDelaySeconds and the fabric's link reservations, which are
// issued at completions in completion order. The reference's other arrival
// events only decrement a count.
func (s *Scheduler) Schedule(m Mapping) (*Schedule, error) {
	if _, err := s.run(m, math.Inf(1), true); err != nil {
		return nil, err
	}
	return &s.out, nil
}

// MakespanWithin list-schedules m like Schedule but computes only the
// single-iteration makespan: it skips the eq. (7) busy-cycle billing and
// the CommDelaySeconds sum, and it stops as soon as the next batch lies
// after cutoff, since every pending event ends at or after its timestamp
// and the makespan is then provably above cutoff. exceeded reports exactly
// makespan > cutoff. When it is false, makespan is bit-identical to
// Schedule's MakespanSeconds; when it is true, makespan is only a lower
// bound above cutoff. Like Schedule, it invalidates any borrowed Schedule.
func (s *Scheduler) MakespanWithin(m Mapping, cutoff float64) (makespan float64, exceeded bool, err error) {
	exceeded, err = s.run(m, cutoff, false)
	if err != nil {
		return 0, false, err
	}
	return s.out.makespan, exceeded, nil
}

// run is the one simulation loop behind Schedule and MakespanWithin. It
// stops once the next batch lies after cutoff (reporting exceeded, with
// s.out.makespan set to that batch's time) and, with full set, also sums
// CommDelaySeconds and bills eq. (7) busy cycles.
func (s *Scheduler) run(m Mapping, cutoff float64, full bool) (exceeded bool, err error) {
	if err := m.Validate(s.g, s.p.Cores()); err != nil {
		return false, err
	}
	if s.freq[0] == 0 {
		return false, fmt.Errorf("sched: Schedule called before Bind")
	}
	g, n, cores := s.g, s.g.N(), s.p.Cores()

	// Reset output and scratch state.
	sc := &s.out
	copy(sc.Mapping, m)
	sc.makespan = 0
	sc.commDelaySec = 0
	for i := range s.linkBusy {
		s.linkBusy[i] = 0
	}
	for c := 0; c < cores; c++ {
		sc.busyCycles[c] = 0
		sc.busySec[c] = 0
		s.pools[c] = s.pools[c][:0]
		s.coreBusy[c] = false
		s.touched[c] = false
	}
	for t := 0; t < n; t++ {
		s.remainingPreds[t] = len(g.Preds(taskgraph.TaskID(t)))
		s.inputs[t] = agendaEvent{seq: -1, task: taskgraph.TaskID(t)}
	}
	s.agenda = s.agenda[:0]

	seq := 0
	scheduledCount := 0
	dispatch := func(core int, now float64) {
		if s.coreBusy[core] || len(s.pools[core]) == 0 {
			return
		}
		best := 0
		for i := 1; i < len(s.pools[core]); i++ {
			a, b := s.pools[core][i], s.pools[core][best]
			if s.bl[a] > s.bl[b] || (s.bl[a] == s.bl[b] && a < b) {
				best = i
			}
		}
		t := s.pools[core][best]
		s.pools[core] = append(s.pools[core][:best], s.pools[core][best+1:]...)
		dur := float64(g.Task(t).Cycles) / s.freq[core]
		sc.Slots[t] = Slot{Task: t, Core: core, StartSec: now, EndSec: now + dur}
		s.coreBusy[core] = true
		scheduledCount++
		s.heapPush(agendaEvent{now + dur, seq, true, t})
		seq++
	}

	// Seed: root tasks are data-ready at time zero.
	for t := 0; t < n; t++ {
		if s.remainingPreds[t] == 0 {
			s.pools[m[t]] = append(s.pools[m[t]], taskgraph.TaskID(t))
		}
	}
	for c := range s.pools {
		dispatch(c, 0)
	}

	touch := func(core int) {
		if !s.touched[core] {
			s.touched[core] = true
			s.touchedList = append(s.touchedList, core)
		}
	}
	ready := func(t taskgraph.TaskID) {
		s.pools[m[t]] = append(s.pools[m[t]], t)
		touch(m[t])
	}

	for len(s.agenda) > 0 {
		// Heap pops arrive in (at, seq) order, so the batch is seq-ascending
		// within the timestamp.
		now := s.agenda[0].at
		if now > cutoff {
			sc.makespan = now
			return true, nil
		}
		s.batch = s.batch[:0]
		for len(s.agenda) > 0 && s.agenda[0].at == now {
			s.batch = append(s.batch, s.heapPop())
		}
		popSeq := seq
		s.touchedList = s.touchedList[:0]
		// Indexed loop: a completion may insert a ready event further on.
		for i := 0; i < len(s.batch); i++ {
			e := s.batch[i]
			if !e.isStop {
				ready(e.task)
				continue
			}
			core := m[e.task]
			s.coreBusy[core] = false
			touch(core)
			if now > sc.makespan {
				sc.makespan = now
			}
			for _, edge := range g.Succs(e.task) {
				to := edge.To
				in := agendaEvent{now, e.seq, false, to}
				if dst := m[to]; dst != core && edge.Cycles != 0 {
					if s.icn != nil {
						// The transfer rides the shared fabric: reserve the
						// route's links and deliver at the (possibly
						// contended) arrival time.
						in.at = s.transferArrival(core, dst, edge.Cycles, now)
						if full {
							sc.commDelaySec += in.at - now
						}
					} else {
						// Ideal dedicated link: the transfer costs its cycle
						// count at the slower endpoint's clock.
						fSlow := s.freq[core]
						if fd := s.freq[dst]; fd < fSlow {
							fSlow = fd
						}
						if full {
							sc.commDelaySec += float64(edge.Cycles) / fSlow
						}
						in.at = now + float64(edge.Cycles)/fSlow
					}
					in.seq = seq
					seq++
				}
				if agendaLess(s.inputs[to], in) {
					s.inputs[to] = in
				}
				if s.remainingPreds[to]--; s.remainingPreds[to] > 0 {
					continue
				}
				switch last := s.inputs[to]; {
				case last.seq == e.seq: // this completion's own key
					ready(to)
				case last.at == now && last.seq < popSeq: // due later in this batch
					j := i + 1
					for j < len(s.batch) && s.batch[j].seq < last.seq {
						j++
					}
					s.batch = append(s.batch, agendaEvent{})
					copy(s.batch[j+1:], s.batch[j:])
					s.batch[j] = last
				default:
					s.heapPush(last)
				}
			}
		}
		for _, c := range s.touchedList {
			dispatch(c, now)
			s.touched[c] = false
		}
	}
	if scheduledCount != n {
		return false, fmt.Errorf("sched: graph %q not schedulable (%d of %d tasks ran)", g.Name(), scheduledCount, n)
	}
	if !full {
		return false, nil
	}

	// Eq. (7): per-core busy cycles = task cycles + dependency cycles of
	// cross-core edges, billed to both endpoint cores (the producer drives
	// the link, the consumer receives; DESIGN.md §5).
	for t := 0; t < n; t++ {
		core := m[t]
		sc.busyCycles[core] += g.Task(taskgraph.TaskID(t)).Cycles
		for _, e := range g.Succs(taskgraph.TaskID(t)) {
			if m[e.To] != core {
				sc.busyCycles[core] += e.Cycles
				sc.busyCycles[m[e.To]] += e.Cycles
			}
		}
	}
	for c := range sc.busySec {
		sc.busySec[c] = float64(sc.busyCycles[c]) / s.freq[c]
	}
	return false, nil
}

// heapPush inserts an event into the agenda min-heap. Hand-rolled rather
// than container/heap: the interface indirection and per-op allocations of
// the stdlib adapter are measurable at this call frequency, and the agenda
// is the scheduler's innermost data structure.
func (s *Scheduler) heapPush(e agendaEvent) {
	s.agenda = append(s.agenda, e)
	i := len(s.agenda) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !agendaLess(s.agenda[i], s.agenda[parent]) {
			break
		}
		s.agenda[i], s.agenda[parent] = s.agenda[parent], s.agenda[i]
		i = parent
	}
}

// heapPop removes and returns the agenda's (at, seq)-minimum event.
func (s *Scheduler) heapPop() agendaEvent {
	top := s.agenda[0]
	last := len(s.agenda) - 1
	s.agenda[0] = s.agenda[last]
	s.agenda = s.agenda[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && agendaLess(s.agenda[l], s.agenda[small]) {
			small = l
		}
		if r < last && agendaLess(s.agenda[r], s.agenda[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.agenda[i], s.agenda[small] = s.agenda[small], s.agenda[i]
		i = small
	}
	return top
}

// Clone returns an independent deep copy of the schedule, safe to retain
// after the Scheduler that produced it moves on.
func (s *Schedule) Clone() *Schedule {
	out := *s
	out.Mapping = s.Mapping.Clone()
	out.Scaling = append([]int(nil), s.Scaling...)
	out.Slots = append([]Slot(nil), s.Slots...)
	out.busyCycles = append([]int64(nil), s.busyCycles...)
	out.busySec = append([]float64(nil), s.busySec...)
	out.freqHz = append([]float64(nil), s.freqHz...)
	return &out
}
