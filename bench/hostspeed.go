package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// The benchmark host is a shared virtual machine, and its speed changes
// for seconds to minutes at a time, in two ways. The hypervisor gives the
// machine's virtual CPUs to other tenants (steal time), and other tenants'
// load slows the CPUs themselves. So every end-to-end time is reported at
// the reference host's speed, corrected for each:
//
//   - Steal: each timed interval (a set-up phase, a flagship solve, a
//     service block) is multiplied by the share of the machine's busy CPU
//     time over it that the hypervisor did not steal, from /proc/stat.
//   - CPU speed: a reference kernel of sorting, map updates and a binary
//     heap, code that lives in this file and in no package of the program,
//     is timed in thread CPU time, which stolen time does not count, at
//     quiescent points with no operation in flight: before every set-up,
//     before every flagship solve, and between the blocks of a service
//     workload. Every time of the run is multiplied by refNominalS ÷ the
//     run's median kernel time. A single sample varies by 5-10%, more than
//     the CPU's speed does within a run, so the run's median is used.
//
// A change to the program cannot speed up or slow down the kernel, nor the
// hypervisor, so it moves the reported times as it moves the measured ones.

// refNominalS is the reference kernel's median time on the host the
// benchmark was first calibrated on, a shared 2-core Intel Xeon VM. It fixes
// the unit of every scaled time.
const refNominalS = 0.0033

// refKernel is the reference kernel's working set. It allocates nothing
// and holds no pointers after newRefKernel, so it never waits on, assists
// or triggers the garbage collector.
type refKernel struct {
	keys, sorted []int
	counts       map[int]int
	heap         []refItem
	rng          uint64
}

type refItem struct {
	t   uint64
	seq int
}

const (
	refKeys    = 20000
	refBuckets = 5000
	refPushes  = 30000
	refHeapCap = 64
)

func newRefKernel() *refKernel {
	r := rand.New(rand.NewSource(1))
	k := &refKernel{
		keys:   make([]int, refKeys),
		sorted: make([]int, refKeys),
		counts: make(map[int]int, refBuckets),
		heap:   make([]refItem, 0, refHeapCap+1),
	}
	for i := range k.keys {
		k.keys[i] = r.Int()
	}
	return k
}

// run does one pass of the kernel.
func (k *refKernel) run() {
	copy(k.sorted, k.keys)
	slices.Sort(k.sorted)

	clear(k.counts)
	for i, key := range k.keys {
		k.counts[key%refBuckets] += i
	}
	sum := 0
	for _, key := range k.sorted {
		sum += k.counts[key%refBuckets]
	}

	// A bounded min-heap of pseudo-random keys, as a scheduler's ready list.
	k.heap = k.heap[:0]
	k.rng = 88172645463325252
	for i := 0; i < refPushes; i++ {
		k.rng ^= k.rng << 13
		k.rng ^= k.rng >> 7
		k.rng ^= k.rng << 17
		k.push(refItem{t: k.rng, seq: i})
		if len(k.heap) > refHeapCap {
			k.pop()
		}
	}
	k.sorted[0] = sum // keep the map pass live
}

func (k *refKernel) less(i, j int) bool {
	a, b := k.heap[i], k.heap[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (k *refKernel) push(it refItem) {
	k.heap = append(k.heap, it)
	for i := len(k.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !k.less(i, p) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

func (k *refKernel) pop() {
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && k.less(c+1, c) {
			c++
		}
		if !k.less(c, i) {
			return
		}
		k.heap[i], k.heap[c] = k.heap[c], k.heap[i]
		i = c
	}
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which the syscall
// package lacks.
const clockThreadCPUTime = 3

// threadCPUSeconds is the calling thread's CPU time, to the nanosecond.
// getrusage(RUSAGE_THREAD) would not do: it can count in whole scheduler
// ticks (4 ms at HZ=250), as long as the kernel itself.
func threadCPUSeconds() (float64, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// cpuStat is the machine's CPU time in /proc/stat ticks: the ticks stolen
// by the hypervisor, and every busy tick, stolen ones included.
type cpuStat struct {
	steal, busy int64
}

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[1+i], 10, 64); err != nil {
			return cpuStat{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	return cpuStat{steal: v[7], busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}, nil
}

// hostSpeed collects a run's reference-kernel samples and steal time.
type hostSpeed struct {
	kernel      *refKernel
	samples     []float64
	steal, busy int64 // over every interval measured
	err         error // the first failure to measure the host
}

func newHostSpeed() *hostSpeed { return &hostSpeed{kernel: newRefKernel()} }

func (h *hostSpeed) fail(err error) {
	if h.err == nil {
		h.err = fmt.Errorf("measuring the host's speed: %w", err)
	}
}

// sample times the kernel five times at a quiescent point and keeps the
// median.
func (h *hostSpeed) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var xs [5]float64
	for i := range xs {
		t0, err0 := threadCPUSeconds()
		h.kernel.run()
		t1, err1 := threadCPUSeconds()
		if err := errors.Join(err0, err1); err != nil {
			h.fail(err)
			return
		}
		xs[i] = t1 - t0
	}
	h.samples = append(h.samples, median(xs[:]))
}

// cpuScale converts the run's unstolen seconds into reference-host
// seconds.
func (h *hostSpeed) cpuScale() float64 { return ratio(refNominalS, h.kernelS()) }

// mark starts an interval whose steal share unstolen measures.
func (h *hostSpeed) mark() cpuStat {
	st, err := readCPUStat()
	if err != nil {
		h.fail(err)
	}
	return st
}

// unstolen returns the share of the busy CPU time since from that the
// hypervisor did not steal.
func (h *hostSpeed) unstolen(from cpuStat) float64 {
	to := h.mark()
	steal, busy := to.steal-from.steal, to.busy-from.busy
	if busy <= 0 || h.err != nil {
		return 1
	}
	h.steal += steal
	h.busy += busy
	return 1 - float64(steal)/float64(busy)
}

// kernelS is the run's median kernel time.
func (h *hostSpeed) kernelS() float64 { return median(h.samples) }

// stealFrac is the share of busy CPU time stolen over the run's intervals.
func (h *hostSpeed) stealFrac() float64 { return ratio(float64(h.steal), float64(h.busy)) }
