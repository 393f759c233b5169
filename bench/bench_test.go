package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"seadopt"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// tinySize runs every workload in a second or two: one flagship problem,
// two traced-run blocks of service_mixed graphs (32 jobs), two primed
// service_hot graphs, one restart.
var tinySize = sizes{
	flagshipProblems: 1,
	mixedGraphs:      2 * mixedBlock,
	hotGraphs:        2,
	hotRounds:        20,
	setups:           1,
	restarts:         1,
	rungBatch:        0.002,
}

// TestSmoke runs every workload traced at the tiny size and checks that it
// prints every metric BENCHMARK.json names, with its unit, that every
// result matches, and that each workload stays in the regime it was chosen
// for.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "seadoptd")
	build := exec.Command("go", "build", "-o", bin, "seadopt/cmd/seadoptd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building seadoptd: %v\n%s", err, out)
	}
	spec := readSpec(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			o := options{
				workload: wl, seed: 11, seconds: 0, trace: true,
				seadoptd: bin, golden: "testdata/golden.json", out: t.TempDir(), size: tinySize,
			}
			var report bytes.Buffer
			res, err := runWorkload(context.Background(), o, &report)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				if err := printResult(&out, res, traced); err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				checkPrinted(t, out.String(), want)
			}
			if _, err := os.Stat(filepath.Join(o.out, wl, "trace.json")); err != nil {
				t.Errorf("no trace.json: %v", err)
			}
			checkRegime(t, wl, values(res.Layer))
		})
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPrinted requires each metric as a report line and in the final JSON
// line, with its unit, and nothing else in the JSON.
func checkPrinted(t *testing.T, out string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Metrics map[string]struct {
			Unit string `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result JSON: %v", err)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("result JSON has %d metrics, BENCHMARK.json names %d", len(last.Metrics), len(want))
	}
	for _, m := range want {
		line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("no report line for %s in %s", m.Name, m.Unit)
		}
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result JSON: %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}

func values(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// checkRegime asserts what each workload was chosen to exercise.
func checkRegime(t *testing.T, wl string, v map[string]float64) {
	t.Helper()
	switch wl {
	case flagshipIdeal, flagshipNoC:
		p, err := flagshipPlatform(wl == flagshipNoC)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := seadopt.NewSystem(taskgraph.Fig8(), p)
		if err != nil {
			t.Fatal(err)
		}
		combos, err := sys.ScalingCombinations()
		if err != nil {
			t.Fatal(err)
		}
		total := float64(len(combos))
		if resolved := v["mapping.combos_pruned"] + v["mapping.combos_skipped"]; resolved < 0.9*total {
			t.Errorf("only %.0f of %.0f combinations pruned or skipped", resolved, total)
		}
		if runs := v["mapping.mapper_runs"]; runs > 0.01*total {
			t.Errorf("%.1f mapper runs per solve, more than 1%% of %.0f combinations", runs, total)
		}
		if v["mapping.ranked_seed_s"] < 0.5*v["mapping.wall_s"] {
			t.Errorf("ranked seed %.3f s of %.3f s: not probe-dominated", v["mapping.ranked_seed_s"], v["mapping.wall_s"])
		}
	case serviceMixed:
		if v["mapping.mapper_runs"] == 0 || v["service.sse_events_per_job"] == 0 {
			t.Errorf("service_mixed did not run the mapper behind SSE: %v", v)
		}
		if v["service.engine_exec_frac"] != 1 {
			t.Errorf("service_mixed jobs should all be engine executions, got fraction %v", v["service.engine_exec_frac"])
		}
	case serviceHot:
		if r := v["service.cache_hit_ratio"]; r < 0.95 {
			t.Errorf("cache-hit ratio %.3f, want at least 0.95", r)
		}
		if v["service.coalesced_frac"] == 0 {
			t.Error("no submission was coalesced")
		}
	}
	if v["store.restart_s"] == 0 && (wl == serviceMixed || wl == serviceHot) {
		t.Error("no restart was measured")
	}
}

// TestCorpusSkipsDisconnectedGraphs checks that a §V seed whose graph is
// disconnected, which seadoptd would reject with 400, never enters a
// corpus.
func TestCorpusSkipsDisconnectedGraphs(t *testing.T) {
	cfg := seadopt.DefaultRandomGraphConfig(flagshipTasks)
	cfg.MaxWidth = flagshipWidth
	g, err := taskgraph.Random(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ingest.ValidateGraph(g) == nil {
		t.Fatal("seed 12 is expected to give a disconnected flagship graph")
	}
	corpus, err := flagshipCorpus(false, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, prob := range corpus {
		if prob.key == g.Name() {
			t.Errorf("disconnected %s is in the corpus", g.Name())
		}
		if err := ingest.ValidateGraph(prob.graph); err != nil {
			t.Errorf("corpus graph %s: %v", prob.key, err)
		}
	}
	if corpus[0].key != "random-60-seed11" || corpus[1].key != "random-60-seed17" {
		t.Errorf("corpus starts %s, %s; want seeds 11 and 17", corpus[0].key, corpus[1].key)
	}
}

// TestMixedOrderKeepsModeSequence checks that every seed submits the whole
// service_mixed corpus once, in the same sequence of modes.
func TestMixedOrderKeepsModeSequence(t *testing.T) {
	const n = 40
	for seed := int64(1); seed <= 3; seed++ {
		order := mixedOrder(seed, n)
		seen := make(map[int]bool, n)
		for k, i := range order {
			if seen[i] {
				t.Fatalf("seed %d: graph %d submitted twice", seed, i)
			}
			seen[i] = true
			if mixedMode(i) != mixedMode(k) {
				t.Errorf("seed %d: position %d runs a %s graph, want %s", seed, k, mixedMode(i), mixedMode(k))
			}
		}
		if len(seen) != n {
			t.Errorf("seed %d: %d of %d graphs submitted", seed, len(seen), n)
		}
	}
}

// TestRefKernelAllocatesNothing checks that the reference kernel never
// allocates, so the program's garbage cannot slow it down.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(3, func() { k.run() }); n != 0 {
		t.Errorf("reference kernel allocates %v times per run", n)
	}
}

// TestCPUStat checks that /proc/stat's steal and busy ticks read, and
// that a busy interval's unstolen share is a share.
func TestCPUStat(t *testing.T) {
	hs := newHostSpeed()
	mark := hs.mark()
	for range 20 {
		hs.sample()
	}
	u := hs.unstolen(mark)
	if hs.err != nil {
		t.Fatal(hs.err)
	}
	if mark.busy <= 0 || mark.steal < 0 || mark.steal > mark.busy {
		t.Errorf("implausible /proc/stat ticks %+v", mark)
	}
	if u <= 0 || u > 1 {
		t.Errorf("unstolen share %v, want in (0, 1]", u)
	}
	if hs.kernelS() <= 0 {
		t.Errorf("reference kernel took %v s of CPU time", hs.kernelS())
	}
}

// TestThreadCPUClock checks that the thread CPU clock resolves a 200 µs
// spin. A clock that counts in scheduler ticks reads 0 or a whole tick.
func TestThreadCPUClock(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var xs []float64
	for range 9 {
		c0, err := threadCPUSeconds()
		if err != nil {
			t.Fatal(err)
		}
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
		c1, err := threadCPUSeconds()
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, c1-c0)
	}
	if m := median(xs); m < 50e-6 || m > 250e-6 {
		t.Errorf("a 200 µs spin read %v s of thread CPU time (median of %v)", m, xs)
	}
}

// TestHarrellDavis checks the incomplete beta function against closed
// forms and the Harrell–Davis estimate on samples whose answer is known.
func TestHarrellDavis(t *testing.T) {
	for _, x := range []float64{0.1, 0.37, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
		if got, want := regIncBeta(2, 2, x), 3*x*x-2*x*x*x; math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	// A symmetric sample's median estimate is its centre.
	if got := hdQuantile([]float64{4, 1, 3, 2, 5, 6, 7, 10, 8, 9}, 0.5); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("hdQuantile(1..10, 0.5) = %v, want 5.5", got)
	}
	// A constant sample's every quantile is the constant, for large n too.
	flat := make([]float64, 6000)
	for i := range flat {
		flat[i] = 2.5
	}
	for _, q := range []float64{0.5, 0.9} {
		if got := hdQuantile(flat, q); math.Abs(got-2.5) > 1e-9 {
			t.Errorf("hdQuantile(flat, %v) = %v, want 2.5", q, got)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
