// Package desim is a small discrete-event simulation kernel: simulated
// time, and an event queue that fires callbacks in timestamp order, with a
// deterministic FIFO tie break among events scheduled for the same time.
//
// It is the substrate substituting for the paper's "SystemC cycle-accurate
// simulation" (§II-B): the cycle-level MPSoC model in internal/sim
// schedules its task completions and token deliveries as callbacks on a
// Kernel, and the fault-injection campaign consumes the traces they leave.
//
// Simulated time is kept in femtoseconds (int64), which represents every
// clock period of the ARM7 DVS tables exactly (5 ns, 10 ns, 15 ns) and spans
// ±9 223 s (MaxTime). Time never wraps: PeriodOf, ToTime, Mul, Sum and
// Kernel.After refuse a value beyond that range with an error, and
// internal/sim refuses a run that would need one.
package desim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a simulation timestamp in femtoseconds.
type Time int64

// Femtoseconds per common units.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1e3
	Nanosecond  Time = 1e6
	Microsecond Time = 1e9
	Millisecond Time = 1e12
	Second      Time = 1e15
)

// Seconds converts the timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// MaxTime is the latest Time, 2⁶³−1 fs: simulated time spans ±9 223 s.
const MaxTime Time = math.MaxInt64

// FromSeconds converts floating-point seconds to a Time. s must lie within
// ±MaxTime; ToTime checks it.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// ToTime converts floating-point seconds to a Time, refusing NaN and any
// value beyond ±MaxTime.
func ToTime(s float64) (Time, error) {
	return fromFemtoseconds(s*float64(Second), "%g s", s)
}

// PeriodOf returns the clock period of a frequency in Hz, rounded to the
// nearest femtosecond. It refuses a frequency that is not positive or
// whose period lies beyond MaxTime.
func PeriodOf(freqHz float64) (Time, error) {
	if !(freqHz > 0) {
		return 0, fmt.Errorf("desim: clock frequency %g Hz is not positive", freqHz)
	}
	return fromFemtoseconds(float64(Second)/freqHz+0.5, "the period of %g Hz", freqHz)
}

// fromFemtoseconds truncates fs to a Time if it lies within ±MaxTime; what
// and args name the value in the error.
func fromFemtoseconds(fs float64, what string, args ...any) (Time, error) {
	// 2⁶³ is the first float64 beyond MaxTime.
	if !(fs > -(1<<63) && fs < 1<<63) {
		return 0, rangeError(fmt.Sprintf(what, args...))
	}
	return Time(fs), nil
}

// Mul returns n·d for non-negative n and d, refusing a product beyond
// MaxTime.
func Mul(n int64, d Time) (Time, error) {
	if n < 0 || d < 0 {
		return 0, fmt.Errorf("desim: negative factor in %d × %v", n, d)
	}
	if d != 0 && n > int64(MaxTime/d) {
		return 0, rangeError(fmt.Sprintf("%d × %v", n, d))
	}
	return Time(n) * d, nil
}

// Sum returns the sum of non-negative times, refusing one beyond MaxTime.
func Sum(ts ...Time) (Time, error) {
	var total Time
	for _, t := range ts {
		if t < 0 {
			return 0, fmt.Errorf("desim: negative term %v", t)
		}
		if t > MaxTime-total {
			return 0, rangeError(fmt.Sprint("the sum of ", ts))
		}
		total += t
	}
	return total, nil
}

func rangeError(what string) error {
	return fmt.Errorf("desim: %s leaves the ±9223 s range of simulated time", what)
}

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // FIFO tie break for equal timestamps
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel is the simulation engine. The zero value is not usable; create one
// with NewKernel.
type Kernel struct {
	now    Time
	queue  eventHeap
	seq    uint64
	nFired uint64
}

// NewKernel returns a kernel at time zero with an empty event queue.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired returns the number of callbacks executed so far.
func (k *Kernel) EventsFired() uint64 { return k.nFired }

// At schedules fn to run at absolute time at. Scheduling into the past is an
// error.
func (k *Kernel) At(at Time, fn func()) error {
	if at < k.now {
		return fmt.Errorf("desim: scheduling at %v before now %v", at, k.now)
	}
	if fn == nil {
		return fmt.Errorf("desim: nil event callback")
	}
	k.seq++
	heap.Push(&k.queue, &event{at: at, seq: k.seq, fn: fn})
	return nil
}

// After schedules fn to run delay from now. A negative delay, or one that
// would take time beyond MaxTime, is an error.
func (k *Kernel) After(delay Time, fn func()) error {
	at, err := Sum(k.now, delay)
	if err != nil {
		return err
	}
	return k.At(at, fn)
}

// Step fires the next event, advancing time to its timestamp. It reports
// whether an event was fired.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*event)
	k.now = e.at
	k.nFired++
	e.fn()
	return true
}

// Run fires events until the queue drains, returning the final time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}
