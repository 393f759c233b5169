package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runWorkload runs one workload: its set-ups, the timed phase and, when
// traced, the per-layer measurements.
func runWorkload(ctx context.Context, o options, w io.Writer) (*result, error) {
	gold, err := loadGolden(o.golden)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.out, o.workload)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var res *result
	switch o.workload {
	case flagshipIdeal, flagshipNoC:
		res, err = runFlagship(ctx, o, gold, tr, w)
	case serviceMixed, serviceHot:
		res, err = runService(ctx, o, gold, tr, dir, w)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path := filepath.Join(dir, "trace.json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %s (%d spans)\n", path, len(tr.spans))
	}
	return res, nil
}

// timedOp is one set-up, or one operation of the timed phase: a solve or a
// job.
type timedOp struct {
	key      string // the problem, for pairing traced and untraced operations
	latency  float64
	traced   bool
	unstolen float64 // the share of busy CPU time not stolen over its interval
}

// unstolenOver gives every set-up the steal share of the whole set-up
// phase: a single set-up can be too short for /proc/stat's 10 ms ticks.
func unstolenOver(setups []timedOp, unstolen float64) {
	for i := range setups {
		setups[i].unstolen = unstolen
	}
}

// phase is the timed phase's busy time, with the host-speed sampling left
// out: its wall seconds, and its unstolen seconds.
type phase struct {
	wall, unstolen float64
}

func (p *phase) add(seconds, unstolen float64) {
	p.wall += seconds
	p.unstolen += seconds * unstolen
}

// endToEnd derives the end-to-end metrics from the set-ups and the timed
// phase, whose program CPU time is cpu. It prints the times as measured,
// then returns them at the reference host's speed. CPU time, which stolen
// time does not count, takes the CPU scale alone.
func endToEnd(w io.Writer, setups, ops []timedOp, ph phase, cpu, rssMiB float64, hs *hostSpeed) []metric {
	cs := hs.cpuScale()
	var setup, setupRaw, lat, latRaw []float64
	for _, s := range setups {
		setup = append(setup, s.latency*s.unstolen*cs)
		setupRaw = append(setupRaw, s.latency)
	}
	for _, op := range ops {
		lat = append(lat, op.latency*op.unstolen*cs)
		latRaw = append(latRaw, op.latency)
	}
	n := float64(len(ops))
	fmt.Fprintf(w, "host: reference kernel %.3f ms (median of %d samples; %.3f ms on the reference host), %.1f%% of busy CPU time stolen\n",
		hs.kernelS()*1e3, len(hs.samples), refNominalS*1e3, hs.stealFrac()*100)
	fmt.Fprintf(w, "measured: setup %.4g s, op p50 %.4g s, op p90 %.4g s, %.4g ops/s, %.4g cpu s/op\n",
		median(setupRaw), hdQuantile(latRaw, 0.5), hdQuantile(latRaw, 0.9), ratio(n, ph.wall), ratio(cpu, n))
	return []metric{
		{"setup_s", median(setup), "s"},
		{"op_p50_s", hdQuantile(lat, 0.5), "s"},
		{"op_p90_s", hdQuantile(lat, 0.9), "s"},
		{"ops_per_s", ratio(n, ph.unstolen*cs), "1/s"},
		{"cpu_s_per_op", ratio(cpu*cs, n), "s"},
		{"peak_rss_mb", rssMiB, "MiB"},
	}
}

// tracingOverhead compares the traced and untraced operations of a traced
// run, which alternate in blocks. Problems that ran both ways are paired:
// the overhead is the median over them of median(traced)/median(untraced)
// - 1. A workload that never repeats a problem compares the two blocks'
// overall medians instead.
func tracingOverhead(ops []timedOp) float64 {
	type sides struct{ on, off []float64 }
	byKey := map[string]*sides{}
	var all sides
	for _, op := range ops {
		s := byKey[op.key]
		if s == nil {
			s = &sides{}
			byKey[op.key] = s
		}
		if op.traced {
			s.on = append(s.on, op.latency)
			all.on = append(all.on, op.latency)
		} else {
			s.off = append(s.off, op.latency)
			all.off = append(all.off, op.latency)
		}
	}
	var ratios []float64
	for _, s := range byKey {
		if len(s.on) > 0 && len(s.off) > 0 {
			ratios = append(ratios, median(s.on)/median(s.off))
		}
	}
	switch {
	case len(ratios) > 0:
		return median(ratios) - 1
	case len(all.on) > 0 && len(all.off) > 0:
		return median(all.on)/median(all.off) - 1
	}
	return 0
}

// unitsPerSecond is how many units of work the reference host, a shared
// 2-core Intel Xeon VM, completes per second of timed phase at the speed
// of its reference kernel (see hostspeed.go). A unit is a round of the
// flagship corpus, a block of mixedBlock service_mixed graphs (each a cold
// and a warm job), or a service_hot block.
var unitsPerSecond = map[string]float64{
	flagshipIdeal: 0.28,
	flagshipNoC:   0.35,
	serviceMixed:  1.6,
	serviceHot:    2.7,
}

// units is how many units a run of the given length does, and at least
// atLeast. The timed phase does this fixed amount of work, set by --seconds
// alone, so a parent and a change run with the same seed and length do
// exactly the same operations.
func units(workload string, seconds float64, atLeast int) int {
	return max(atLeast, int(math.Round(seconds*unitsPerSecond[workload])))
}

// A timed phase that runs past capFactor × --seconds + capSlackS stops
// short and counts as failed, so a run ends in time even when the program
// has become several times slower.
const (
	capFactor = 4
	capSlackS = 20
)

// overCap reports whether the timed phase has run past its cap.
func overCap(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() > capFactor*seconds+capSlackS
}

// stoppedShort counts a timed phase that hit its cap as one failed
// operation.
func (r *result) stoppedShort(done, total int, unit string, seconds float64) {
	r.Attempted++
	r.fail("the timed phase passed its %.0f s cap after %d of %d %s", capFactor*seconds+capSlackS, done, total, unit)
}
