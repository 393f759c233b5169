package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// below pops events in exactly the sequence a linear min-scan would. The
// same order ranks a task's inputs: the one that completes them is the
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
	g      *taskgraph.Graph
	p      *arch.Platform
	icn    *arch.Interconnect // nil = ideal point-to-point links
	routes *arch.Routes       // icn's route table

	// Graph-constant data, flattened once. Task t's outgoing edges are
	// entries succOff[t] to succOff[t+1] of succTo and succCycles; succSer
	// holds each edge's serialization time on the fabric (nil without
	// one). rank is each task's dispatch priority: 0 for the highest
	// b-level, TaskID breaking ties. topo is a topological order.
	cycles     []int64
	preds      []int
	rank       []int
	topo       []taskgraph.TaskID
	succOff    []int
	succTo     []taskgraph.TaskID
	succCycles []int64
	succSer    []float64

	scaling []int
	freq    []float64
	period  []float64 // 1/freq, for mappedTails

	// Scratch reused across Schedule calls. dur is each task's duration on
	// its mapped core and tail the longest mapped path after it (computed
	// only under a finite cutoff). The agenda is front[:nfront] over heap
	// (see push). inputs holds, per task, the ready event keyed by its
	// latest input delivered so far. linkBusy tracks, per directed fabric
	// link, when the last reserved transfer drains. dispatched counts the
	// tasks the last call dispatched.
	dur            []float64
	tail           []float64
	remainingPreds []int
	inputs         []agendaEvent
	front          [frontCap]agendaEvent
	nfront         int
	heap           []agendaEvent
	batch          []agendaEvent
	pools          [][]taskgraph.TaskID
	coreBusy       []bool
	touched        []bool
	touchedList    []int
	linkBusy       []float64
	dispatched     int

	out Schedule
}

// NewScheduler builds a scheduler for g on p. Bind must be called before
// Schedule.
func NewScheduler(g *taskgraph.Graph, p *arch.Platform) *Scheduler {
	n := g.N()
	cores := p.Cores()
	edges := 0
	for t := 0; t < n; t++ {
		edges += len(g.Succs(taskgraph.TaskID(t)))
	}
	// Arrays of one element type share a backing allocation: one-shot
	// callers (ListSchedule, metrics.Evaluate) build a Scheduler per call.
	ints := make([]int, 4*n+1)
	i64 := make([]int64, n+edges)
	f64 := make([]float64, 2*cores+2*n)
	s := &Scheduler{
		g:              g,
		p:              p,
		icn:            p.Interconnect(),
		routes:         p.Routes(),
		cycles:         i64[:n],
		preds:          ints[:n],
		rank:           ints[n : 2*n],
		topo:           g.TopoOrder(),
		succOff:        ints[2*n : 3*n+1],
		succTo:         make([]taskgraph.TaskID, 0, edges),
		succCycles:     i64[n:n],
		scaling:        make([]int, cores),
		freq:           f64[:cores],
		period:         f64[cores : 2*cores],
		dur:            f64[2*cores : 2*cores+n],
		tail:           f64[2*cores+n:],
		remainingPreds: ints[3*n+1:],
		inputs:         make([]agendaEvent, n),
		pools:          make([][]taskgraph.TaskID, cores),
		coreBusy:       make([]bool, cores),
		touched:        make([]bool, cores),
		touchedList:    make([]int, 0, cores),
	}
	byRank := make([]taskgraph.TaskID, n)
	for t := 0; t < n; t++ {
		id := taskgraph.TaskID(t)
		s.cycles[t] = g.Task(id).Cycles
		s.preds[t] = len(g.Preds(id))
		for _, e := range g.Succs(id) {
			s.succTo = append(s.succTo, e.To)
			s.succCycles = append(s.succCycles, e.Cycles)
		}
		s.succOff[t+1] = len(s.succTo)
		byRank[t] = id
	}
	bl := g.BLevels()
	slices.SortFunc(byRank, func(a, b taskgraph.TaskID) int {
		if c := cmp.Compare(bl[b], bl[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, t := range byRank {
		s.rank[t] = r
	}
	if s.icn != nil {
		s.linkBusy = make([]float64, s.icn.NumLinks())
		s.succSer = make([]float64, len(s.succCycles))
		for k, c := range s.succCycles {
			s.succSer[k] = s.icn.MessageBits(c) / s.icn.BandwidthBps
		}
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

// Bind selects the scaling vector for subsequent Schedule calls. It
// invalidates any borrowed Schedule previously returned.
func (s *Scheduler) Bind(scaling []int) error {
	if err := s.p.ValidScaling(scaling); err != nil {
		return err
	}
	copy(s.scaling, scaling)
	for i, lv := range s.scaling {
		s.freq[i] = s.p.MustCoreLevel(i, lv).FreqHz()
		s.period[i] = 1 / s.freq[i]
	}
	return nil
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
// makespan, the realized comm-delay sum and the fabric's link reservations,
// which are issued at completions in completion order. The reference's
// other arrival events only decrement a count.
func (s *Scheduler) Schedule(m Mapping) (*Schedule, error) {
	if _, err := s.run(m, math.Inf(1), true); err != nil {
		return nil, err
	}
	return &s.out, nil
}

// MakespanWithin list-schedules m like Schedule but computes only the
// single-iteration makespan: it skips the eq. (7) busy-cycle billing and
// the realized comm-delay sum, and it stops as soon as the makespan provably
// exceeds cutoff. exceeded reports exactly makespan > cutoff. When it is
// false, makespan is bit-identical to Schedule's MakespanSeconds; when it
// is true, makespan lies in (cutoff, MakespanSeconds·(1+1e-9)]. Like
// Schedule, it invalidates any borrowed Schedule.
//
// Three tests stop the run. The next batch lies after cutoff: every pending
// event ends at or after its timestamp. Or, with a finite cutoff, a task is
// dispatched whose end plus its mapped tail (see mappedTails) passes cutoff,
// or a fabric transfer delivers a task's input so late that the arrival
// plus the task's duration and tail does. Those two allow a 1e-9 relative
// tolerance, far above the rounding of either side, so they fire only once
// makespan > cutoff is proven.
func (s *Scheduler) MakespanWithin(m Mapping, cutoff float64) (makespan float64, exceeded bool, err error) {
	exceeded, err = s.run(m, cutoff, false)
	if err != nil {
		return 0, false, err
	}
	return s.out.makespan, exceeded, nil
}

// Dispatched returns the number of tasks the last Schedule or
// MakespanWithin call dispatched: all of them unless it stopped early.
func (s *Scheduler) Dispatched() int { return s.dispatched }

// mappedTails sets tail[t], for every task t, to the longest path after t
// under mapping m: per successor, its duration on its mapped core plus,
// across cores, the edge's ideal-link cost (cycles at the slower clock) or
// its uncontended fabric cost hops·HopLatencySec + bits/bandwidth
// (contention only adds to it), hops·HopLatencySec read from the route
// table. So no schedule of m finishes before start + dur[t] + tail[t] for
// any task t dispatched at start, up to rounding: the sums here associate
// differently from the schedule's and the ideal-link cost multiplies by
// the period where the schedule divides by the frequency, each a few ulps.
// Each product is rounded before it is added (an explicit float64), so no
// architecture fuses the two. dur must be set.
func (s *Scheduler) mappedTails(m Mapping) {
	for i := len(s.topo) - 1; i >= 0; i-- {
		t := s.topo[i]
		c := m[t]
		longest := 0.0
		for k := s.succOff[t]; k < s.succOff[t+1]; k++ {
			to := s.succTo[k]
			v := s.dur[to] + s.tail[to]
			if d := m[to]; d != c && s.succCycles[k] != 0 {
				if s.routes != nil {
					v += s.routes.HopSec(c, d) + s.succSer[k]
				} else {
					v += float64(float64(s.succCycles[k]) * max(s.period[c], s.period[d]))
				}
			}
			if v > longest {
				longest = v
			}
		}
		s.tail[t] = longest
	}
}

// run is the one simulation loop behind Schedule and MakespanWithin. It
// stops once the makespan provably exceeds cutoff (reporting exceeded, with
// s.out.makespan set to the lower bound that proved it) and, with full set,
// also bills eq. (7) busy cycles.
func (s *Scheduler) run(m Mapping, cutoff float64, full bool) (exceeded bool, err error) {
	if err := m.Validate(s.g, s.p.Cores()); err != nil {
		return false, err
	}
	if s.freq[0] == 0 {
		return false, fmt.Errorf("sched: Schedule called before Bind")
	}
	n, cores := s.g.N(), s.p.Cores()

	// Reset output and scratch state.
	sc := &s.out
	copy(sc.Mapping, m)
	sc.makespan = 0
	clear(s.linkBusy)
	for c := 0; c < cores; c++ {
		sc.busyCycles[c] = 0
		sc.busySec[c] = 0
		s.pools[c] = s.pools[c][:0]
		s.coreBusy[c] = false
		s.touched[c] = false
	}
	copy(s.remainingPreds, s.preds)
	for t := 0; t < n; t++ {
		s.inputs[t] = agendaEvent{seq: -1, task: taskgraph.TaskID(t)}
		s.dur[t] = float64(s.cycles[t]) / s.freq[m[t]]
	}
	s.nfront, s.heap = 0, s.heap[:0]
	s.dispatched = 0
	bounded := cutoff < math.Inf(1)
	// The tolerance is rounded before the sum, as in mappedTails.
	limit := cutoff + float64(1e-9*math.Abs(cutoff))
	if bounded {
		s.mappedTails(m)
	}

	// dispatch starts the highest-priority ready task of an idle core and
	// reports whether its mapped tail proves the makespan above cutoff.
	seq := 0
	dispatch := func(core int, now float64) (stop bool) {
		pool := s.pools[core]
		if s.coreBusy[core] || len(pool) == 0 {
			return false
		}
		best := 0
		for i := 1; i < len(pool); i++ {
			if s.rank[pool[i]] < s.rank[pool[best]] {
				best = i
			}
		}
		t := pool[best]
		pool[best] = pool[len(pool)-1]
		s.pools[core] = pool[:len(pool)-1]
		end := now + s.dur[t]
		sc.Slots[t] = Slot{Task: t, Core: core, StartSec: now, EndSec: end}
		s.coreBusy[core] = true
		s.dispatched++
		if bounded && end+s.tail[t] > limit {
			sc.makespan = end + s.tail[t]
			return true
		}
		s.push(agendaEvent{end, seq, true, t})
		seq++
		return false
	}

	// Seed: root tasks are data-ready at time zero.
	for t := 0; t < n; t++ {
		if s.remainingPreds[t] == 0 {
			s.pools[m[t]] = append(s.pools[m[t]], taskgraph.TaskID(t))
		}
	}
	for c := range s.pools {
		if dispatch(c, 0) {
			return true, nil
		}
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

	for s.nfront > 0 {
		// Pops arrive in (at, seq) order, so the batch is seq-ascending
		// within the timestamp.
		now := s.front[s.nfront-1].at
		if now > cutoff {
			sc.makespan = now
			return true, nil
		}
		s.batch = s.batch[:0]
		for s.nfront > 0 && s.front[s.nfront-1].at == now {
			s.batch = append(s.batch, s.pop())
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
			for k := s.succOff[e.task]; k < s.succOff[e.task+1]; k++ {
				to := s.succTo[k]
				in := agendaEvent{now, e.seq, false, to}
				if dst := m[to]; dst != core && s.succCycles[k] != 0 {
					if s.icn != nil {
						// The transfer rides the shared fabric: reserve the
						// route's links and deliver at the (possibly
						// contended) arrival time.
						in.at = arch.Reserve(s.routes, s.linkBusy, core, dst, now, s.icn.HopLatencySec, s.succSer[k])
						// to cannot start before this input arrives, and
						// contention may have delayed it past the
						// uncontended cost mappedTails assumed.
						if lb := in.at + s.dur[to] + s.tail[to]; bounded && lb > limit {
							sc.makespan = lb
							return true, nil
						}
					} else {
						// Ideal dedicated link: the transfer costs its cycle
						// count at the slower endpoint's clock.
						fSlow := s.freq[core]
						if fd := s.freq[dst]; fd < fSlow {
							fSlow = fd
						}
						in.at = now + float64(s.succCycles[k])/fSlow
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
					s.push(last)
				}
			}
		}
		for _, c := range s.touchedList {
			s.touched[c] = false
			if dispatch(c, now) {
				return true, nil
			}
		}
	}
	if s.dispatched != n {
		return false, fmt.Errorf("sched: graph %q not schedulable (%d of %d tasks ran)", s.g.Name(), s.dispatched, n)
	}
	if !full {
		return false, nil
	}

	// Eq. (7): per-core busy cycles = task cycles + dependency cycles of
	// cross-core edges, billed to both endpoint cores (the producer drives
	// the link, the consumer receives; DESIGN.md §5).
	for t := 0; t < n; t++ {
		core := m[t]
		sc.busyCycles[core] += s.cycles[t]
		for k := s.succOff[t]; k < s.succOff[t+1]; k++ {
			if to := m[s.succTo[k]]; to != core {
				sc.busyCycles[core] += s.succCycles[k]
				sc.busyCycles[to] += s.succCycles[k]
			}
		}
	}
	for c := range sc.busySec {
		sc.busySec[c] = float64(sc.busyCycles[c]) / s.freq[c]
	}
	return false, nil
}

// frontCap bounds the agenda's sorted front, a power of two (see push). A
// list schedule's agenda holds a handful of events, nearly in time order,
// so the front usually holds them all; a wide fan-out spills the rest to
// the heap behind it.
const frontCap = 32

// push inserts an event into the agenda: a sorted front of at most
// frontCap events in descending agendaLess order, so that its last event is
// the earliest, over a binary min-heap of events that all come after every
// front event. An event after the front's latest goes to the heap once the
// heap holds events or the front is full; any other joins the front by
// insertion, and a full front first moves its latest event to the heap.
// The front is empty only when the heap is (see pop). So a usual 6–7-event
// agenda never touches the heap, and a 4095-way fan-out costs
// O(frontCap + log k) per event. The insertion indexes the front modulo
// frontCap, which is the identity there and spares the bounds checks.
func (s *Scheduler) push(e agendaEvent) {
	n := s.nfront
	f := &s.front
	if (n == frontCap || len(s.heap) > 0) && agendaLess(f[0], e) {
		s.heapPush(e)
		return
	}
	if n == frontCap {
		s.heapPush(f[0])
		copy(f[:], f[1:])
		n--
	}
	s.nfront = n + 1
	for n > 0 && agendaLess(f[(n-1)&(frontCap-1)], e) {
		f[n&(frontCap-1)] = f[(n-1)&(frontCap-1)]
		n--
	}
	f[n&(frontCap-1)] = e
}

// pop removes and returns the agenda's (at, seq)-minimum event, the
// front's last, and refills an emptied front with the heap's earliest
// events.
func (s *Scheduler) pop() agendaEvent {
	s.nfront--
	e := s.front[s.nfront]
	if s.nfront == 0 && len(s.heap) > 0 {
		s.nfront = min(len(s.heap), frontCap)
		for i := s.nfront - 1; i >= 0; i-- {
			s.front[i] = s.heapPop()
		}
	}
	return e
}

// heapPush inserts an event into the agenda's min-heap. Hand-rolled rather
// than container/heap: the interface indirection and per-op allocations of
// the stdlib adapter are measurable at this call frequency. Both sifts move
// a hole instead of swapping, which leaves the same array as swapping
// would.
func (s *Scheduler) heapPush(e agendaEvent) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !agendaLess(e, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = e
}

// heapPop removes and returns the heap's (at, seq)-minimum event.
func (s *Scheduler) heapPop() agendaEvent {
	top := s.heap[0]
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		small := 2*i + 1
		if small >= last {
			break
		}
		if r := small + 1; r < last && agendaLess(s.heap[r], s.heap[small]) {
			small = r
		}
		if !agendaLess(s.heap[small], e) {
			break
		}
		s.heap[i] = s.heap[small]
		i = small
	}
	if last > 0 {
		s.heap[i] = e
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
