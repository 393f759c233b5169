package sched

import (
	"fmt"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// tokenScheduler is the token-per-edge list scheduler that Scheduler
// replaced, kept verbatim as a test-only reference: every completion pushes
// one token-arrival event per cross-core edge with non-zero cycles, and a
// task becomes ready when the token (or same-core completion) that
// decrements its last predecessor count is popped. Scheduler keeps one
// agenda event per task instead; TestScheduleMatchesTokenAgenda and
// FuzzScheduleMatchesTokenAgenda hold the two bit-identical.
type tokenScheduler struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	bl  []int64
	icn *arch.Interconnect

	scaling []int
	freq    []float64

	remainingPreds []int
	agenda         []tokenEvent
	batch          []tokenEvent
	pools          [][]taskgraph.TaskID
	coreBusy       []bool
	touched        []bool
	touchedList    []int
	linkBusy       []float64
	linkPath       []int

	out Schedule
}

// tokenEvent is one entry of the reference agenda: either a task
// completion or a cross-core token arrival.
type tokenEvent struct {
	at     float64
	seq    int
	isStop bool             // task completion (vs token arrival)
	task   taskgraph.TaskID // completing task or token target
}

func tokenLess(a, b tokenEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func newTokenScheduler(g *taskgraph.Graph, p *arch.Platform) *tokenScheduler {
	n := g.N()
	cores := p.Cores()
	s := &tokenScheduler{
		g:              g,
		p:              p,
		bl:             g.BLevels(),
		icn:            p.Interconnect(),
		scaling:        make([]int, cores),
		freq:           make([]float64, cores),
		remainingPreds: make([]int, n),
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

func (s *tokenScheduler) transferArrival(src, dst int, cycles int64, now float64) float64 {
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

func (s *tokenScheduler) bind(scaling []int) error {
	if err := s.p.ValidScaling(scaling); err != nil {
		return err
	}
	copy(s.scaling, scaling)
	for i, lv := range s.scaling {
		s.freq[i] = s.p.MustCoreLevel(i, lv).FreqHz()
	}
	return nil
}

func (s *tokenScheduler) schedule(m Mapping) (*Schedule, error) {
	if err := m.Validate(s.g, s.p.Cores()); err != nil {
		return nil, err
	}
	if s.freq[0] == 0 {
		return nil, fmt.Errorf("sched: Schedule called before Bind")
	}
	g, n, cores := s.g, s.g.N(), s.p.Cores()

	// Reset output and scratch state.
	sc := &s.out
	copy(sc.Mapping, m)
	sc.makespan = 0
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
	}
	s.agenda = s.agenda[:0]

	seq := 0
	push := func(at float64, isStop bool, task taskgraph.TaskID) {
		s.heapPush(tokenEvent{at, seq, isStop, task})
		seq++
	}

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
		push(now+dur, true, t)
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

	for len(s.agenda) > 0 {
		// Batch all events at the same timestamp before dispatching so a
		// completion and a token arrival at time t see each other.
		now := s.agenda[0].at
		s.batch = s.batch[:0]
		for len(s.agenda) > 0 && s.agenda[0].at == now {
			s.batch = append(s.batch, s.heapPop())
		}
		s.touchedList = s.touchedList[:0]
		for _, e := range s.batch {
			if e.isStop {
				t := e.task
				core := m[t]
				s.coreBusy[core] = false
				touch(core)
				if now > sc.makespan {
					sc.makespan = now
				}
				for _, edge := range g.Succs(t) {
					if m[edge.To] == core || edge.Cycles == 0 {
						s.remainingPreds[edge.To]--
						if s.remainingPreds[edge.To] == 0 {
							s.pools[m[edge.To]] = append(s.pools[m[edge.To]], edge.To)
							touch(m[edge.To])
						}
						continue
					}
					if s.icn != nil {
						push(s.transferArrival(core, m[edge.To], edge.Cycles, now), false, edge.To)
						continue
					}
					fSlow := s.freq[core]
					if fd := s.freq[m[edge.To]]; fd < fSlow {
						fSlow = fd
					}
					push(now+float64(edge.Cycles)/fSlow, false, edge.To)
				}
			} else {
				t := e.task
				s.remainingPreds[t]--
				if s.remainingPreds[t] == 0 {
					s.pools[m[t]] = append(s.pools[m[t]], t)
					touch(m[t])
				}
			}
		}
		for _, c := range s.touchedList {
			dispatch(c, now)
			s.touched[c] = false
		}
	}
	if scheduledCount != n {
		return nil, fmt.Errorf("sched: graph %q not schedulable (%d of %d tasks ran)", g.Name(), scheduledCount, n)
	}

	// Eq. (7): per-core busy cycles = task cycles + dependency cycles of
	// cross-core edges, billed to both endpoint cores.
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
	return sc, nil
}

func (s *tokenScheduler) heapPush(e tokenEvent) {
	s.agenda = append(s.agenda, e)
	i := len(s.agenda) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !tokenLess(s.agenda[i], s.agenda[parent]) {
			break
		}
		s.agenda[i], s.agenda[parent] = s.agenda[parent], s.agenda[i]
		i = parent
	}
}

func (s *tokenScheduler) heapPop() tokenEvent {
	top := s.agenda[0]
	last := len(s.agenda) - 1
	s.agenda[0] = s.agenda[last]
	s.agenda = s.agenda[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && tokenLess(s.agenda[l], s.agenda[small]) {
			small = l
		}
		if r < last && tokenLess(s.agenda[r], s.agenda[small]) {
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
