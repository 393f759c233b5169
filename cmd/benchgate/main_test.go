package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoBaselines resolves the committed baseline files at the repository
// root relative to this package.
func repoBaselines(t *testing.T) []string {
	t.Helper()
	paths := []string{
		filepath.Join("..", "..", "BENCH_explore.json"),
		filepath.Join("..", "..", "BENCH_prune.json"),
		filepath.Join("..", "..", "BENCH_sweep.json"),
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("committed baseline missing: %v", err)
		}
	}
	return paths
}

// healthyBench renders bench output matching the committed baselines (with
// -count=3 repetition noise that the min-of-count logic must absorb).
func healthyBench() string {
	var sb strings.Builder
	lines := []struct {
		name   string
		ns     float64
		allocs int
	}{
		// OptimizeMPEG2 uses 219 allocs (not the baseline's 217) so its
		// alloc count is unique in the fixture: the regression tests below
		// rewrite it by string replacement without touching ExploreMPEG2BnB,
		// which shares the 217 figure in the committed baselines.
		{"BenchmarkOptimizeMPEG2", 807341, 219},
		{"BenchmarkEvaluate", 37924, 43},
		{"BenchmarkEvaluatorReuse", 7172, 0},
		{"BenchmarkExploreMPEG2Exhaustive", 4153701, 1796},
		{"BenchmarkExploreMPEG2BnB", 896104, 217},
		{"BenchmarkExplore16CoreExhaustive", 397196066, 26078},
		{"BenchmarkExplore16CoreBnB", 61809175, 3336},
		{"BenchmarkSweepWarmVsCold/Cold", 487193877, 26669},
		{"BenchmarkSweepWarmVsCold/Warm", 40892894, 7401},
	}
	for _, l := range lines {
		for rep := 0; rep < 3; rep++ {
			// Later repetitions are slightly slower; min-of-count keeps the best.
			ns := l.ns * (1 + 0.08*float64(rep))
			fmt.Fprintf(&sb, "%s-8  \t     100\t  %.0f ns/op\t  123 B/op\t  %d allocs/op\n", l.name, ns, l.allocs)
		}
	}
	sb.WriteString("PASS\nok  \tseadopt\t42.0s\n")
	return sb.String()
}

// runGate writes the bench output to a temp file and runs the gate against
// the committed baselines, returning exit code and combined output.
func runGate(t *testing.T, bench string, extraArgs ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(path, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	args := append([]string{"-bench", path}, extraArgs...)
	args = append(args, repoBaselines(t)...)
	code := run(args, &out, &out)
	return code, out.String()
}

func TestGatePassesOnHealthyRun(t *testing.T) {
	code, out := runGate(t, healthyBench())
	if code != 0 {
		t.Fatalf("healthy run failed (exit %d):\n%s", code, out)
	}
	for _, want := range []string{
		"PASS  OptimizeMPEG2",
		"PASS  ExploreMPEG2 speedup",
		"PASS  Explore16Core speedup",
		"PASS  SweepWarmVsCold warm speedup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("healthy run reported failures:\n%s", out)
	}
}

// TestGateFailsOnInjectedSlowdown is the acceptance criterion: a 2×
// wall-clock slowdown of the branch-and-bound benchmarks halves the
// measured speedup ratios, which a ±20% tolerance must reject.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	slowed := healthyBench()
	// Double every BnB ns/op figure: the pruning win collapses 2×.
	var sb strings.Builder
	for _, line := range strings.Split(slowed, "\n") {
		if strings.Contains(line, "BnB") {
			fields := strings.Fields(line)
			var ns float64
			fmt.Sscanf(fields[2], "%f", &ns)
			fmt.Fprintf(&sb, "%s  \t%s\t  %.0f ns/op\t  %s B/op\t  %s allocs/op\n",
				fields[0], fields[1], ns*2, fields[4], fields[6])
			continue
		}
		sb.WriteString(line + "\n")
	}
	code, out := runGate(t, sb.String())
	if code == 0 {
		t.Fatalf("2x BnB slowdown passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  ExploreMPEG2 speedup") || !strings.Contains(out, "FAIL  Explore16Core speedup") {
		t.Errorf("slowdown not attributed to the speedup checks:\n%s", out)
	}
}

// TestGateFailsOnWarmRatioCollapse: tripling the warm-start sweep's wall
// clock collapses the Cold/Warm speedup, which the warm-speedup ratio
// check must reject even while both allocation gates still pass.
func TestGateFailsOnWarmRatioCollapse(t *testing.T) {
	slowed := healthyBench()
	var sb strings.Builder
	for _, line := range strings.Split(slowed, "\n") {
		if strings.Contains(line, "SweepWarmVsCold/Warm") {
			fields := strings.Fields(line)
			var ns float64
			fmt.Sscanf(fields[2], "%f", &ns)
			fmt.Fprintf(&sb, "%s  \t%s\t  %.0f ns/op\t  %s B/op\t  %s allocs/op\n",
				fields[0], fields[1], ns*3, fields[4], fields[6])
			continue
		}
		sb.WriteString(line + "\n")
	}
	code, out := runGate(t, sb.String())
	if code == 0 {
		t.Fatalf("3x warm-sweep slowdown passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  SweepWarmVsCold warm speedup") {
		t.Errorf("slowdown not attributed to the warm speedup check:\n%s", out)
	}
	if strings.Contains(out, "FAIL  SweepWarmVsCold/Warm ") {
		t.Errorf("wall-clock slowdown tripped the allocation gate:\n%s", out)
	}
}

// TestGateFailsOnAllocRegression: a doubled allocs/op count on a baselined
// benchmark fails the allocation gate.
func TestGateFailsOnAllocRegression(t *testing.T) {
	regressed := strings.ReplaceAll(healthyBench(), "219 allocs/op", "438 allocs/op")
	code, out := runGate(t, regressed)
	if code == 0 {
		t.Fatalf("2x alloc regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "FAIL  OptimizeMPEG2") {
		t.Errorf("regression not attributed to OptimizeMPEG2:\n%s", out)
	}
}

// TestGateWithinTolerancePasses: a 15% alloc increase and a 15% ratio dip
// stay inside the ±20% band.
func TestGateWithinTolerancePasses(t *testing.T) {
	bench := healthyBench()
	bench = strings.ReplaceAll(bench, "219 allocs/op", "250 allocs/op") // +15% vs the 217 baseline
	var sb strings.Builder
	for _, line := range strings.Split(bench, "\n") {
		if strings.Contains(line, "BnB") {
			fields := strings.Fields(line)
			var ns float64
			fmt.Sscanf(fields[2], "%f", &ns)
			fmt.Fprintf(&sb, "%s  \t%s\t  %.0f ns/op\t  %s B/op\t  %s allocs/op\n",
				fields[0], fields[1], ns*1.15, fields[4], fields[6])
			continue
		}
		sb.WriteString(line + "\n")
	}
	if code, out := runGate(t, sb.String()); code != 0 {
		t.Fatalf("within-tolerance drift failed the gate:\n%s", out)
	}
}

// TestGateRefusesToCheckNothing: output with no baselined benchmark fails
// rather than vacuously passing.
func TestGateRefusesToCheckNothing(t *testing.T) {
	code, out := runGate(t, "BenchmarkUnrelated-8  100  5 ns/op  0 B/op  0 allocs/op\n")
	if code == 0 {
		t.Fatalf("empty-check run passed:\n%s", out)
	}
}

func TestFlagErrors(t *testing.T) {
	var out strings.Builder
	if code := run(nil, &out, &out); code != 1 && code != 2 {
		t.Errorf("no-args run exited %d, want error", code)
	}
	if code := run([]string{"-tol", "5", "x.json"}, &out, &out); code != 2 {
		t.Errorf("bad tolerance exited %d, want 2", code)
	}
	if code := run([]string{"-unknown"}, &out, &out); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
}

// TestGateFailsOnMissingBenchmark: a baselined benchmark absent from the
// measured output must fail with the baseline file that names it — a
// renamed benchmark must not silently stop being checked.
func TestGateFailsOnMissingBenchmark(t *testing.T) {
	bench := healthyBench()
	// Drop one baselined benchmark from the output entirely.
	var kept []string
	for _, line := range strings.Split(bench, "\n") {
		if strings.HasPrefix(line, "BenchmarkEvaluatorReuse") {
			continue
		}
		kept = append(kept, line)
	}
	code, out := runGate(t, strings.Join(kept, "\n"))
	if code == 0 {
		t.Fatalf("missing baselined benchmark passed:\n%s", out)
	}
	if !strings.Contains(out, "EvaluatorReuse") || !strings.Contains(out, "BENCH_explore.json") {
		t.Fatalf("failure message does not name the benchmark and its baseline file:\n%s", out)
	}
	if !strings.Contains(out, "renamed or deleted") {
		t.Fatalf("failure message is not actionable:\n%s", out)
	}
}

// TestRepeatedBaselineFlags: -baseline can be given repeatedly and mixes
// with positional files.
func TestRepeatedBaselineFlags(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(path, []byte(healthyBench()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	args := []string{"-bench", path}
	for _, b := range repoBaselines(t) {
		args = append(args, "-baseline", b)
	}
	if code := run(args, &out, &out); code != 0 {
		t.Fatalf("repeated -baseline flags failed (%d):\n%s", code, out.String())
	}
	var out2 strings.Builder
	if code := run([]string{"-bench", path, "-baseline"}, &out2, &out2); code != 2 {
		t.Fatalf("trailing -baseline without a path exited %d, want 2", code)
	}
}
