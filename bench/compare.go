package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &bf, nil
}

// comparePairs is how many alternating parent/change pairs the comparison
// runs per workload: the fewest that can show 9 wins in 10.
const comparePairs = 10

// compareMain runs the paired protocol between two checkouts. For each pair
// and each workload of the change's BENCHMARK.json, it runs the parent and
// the change back to back for run_seconds, alternating which goes first;
// pair i uses seed 1+i on both sides. It then judges every end-to-end
// metric:
//
//   - gain: the change wins at least 9 in 10 of the pairs (ties count for
//     neither), and the medians differ by more than the parent's
//     interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's spread exceeds the bound, unless every
//     change run beats every parent run;
//   - same: otherwise.
func compareMain(ctx context.Context, args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare <parent-checkout> <change-checkout>")
	}
	sides := [2]string{args[0], args[1]}
	bf, err := readBenchmarkFile(filepath.Join(sides[1], "BENCHMARK.json"))
	if err != nil {
		return err
	}

	// values[workload][metric][side] holds one value per pair.
	values := map[string]map[string][2][]float64{}
	for i := 0; i < comparePairs; i++ {
		for _, wl := range bf.Workloads {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				got, err := runOnce(ctx, bf.Command, sides[side], wl.Name, int64(1+i), bf.RunSeconds)
				if err != nil {
					return fmt.Errorf("pair %d, %s, %s: %w", i, wl.Name, sides[side], err)
				}
				if values[wl.Name] == nil {
					values[wl.Name] = map[string][2][]float64{}
				}
				for name, v := range got {
					pair := values[wl.Name][name]
					pair[side] = append(pair[side], v)
					values[wl.Name][name] = pair
				}
			}
			fmt.Fprintf(w, "pair %d/%d %s done\n", i+1, comparePairs, wl.Name)
		}
	}

	fmt.Fprintf(w, "\nverdict, change's median move (+ = better), pairs the change won\n%-16s", "workload")
	for _, m := range bf.EndToEnd {
		fmt.Fprintf(w, " %-34s", m.Name)
	}
	fmt.Fprintln(w)
	for _, wl := range bf.Workloads {
		wl := wl.Name
		fmt.Fprintf(w, "%-16s", wl)
		for _, m := range bf.EndToEnd {
			v := values[wl][m.Name]
			fmt.Fprintf(w, " %-34s", judge(v[0], v[1], m.Better == "higher", m.Bound))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runOnce runs the benchmark command in a checkout and returns the metrics
// of its final JSON line.
func runOnce(ctx context.Context, command []string, dir, workload string, seed int64, seconds int) (map[string]float64, error) {
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, command[0], args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("decoding the result line: %w", err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("the run reported incorrect results")
	}
	got := make(map[string]float64, len(out.Metrics))
	for name, m := range out.Metrics {
		got[name] = m.Value
	}
	return got, nil
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads match
// the ones Python-based tooling computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// judge applies the paired rules to one (workload, metric): parent and
// change hold one value per pair, in pair order, comparePairs of each.
func judge(parent, change []float64, higherBetter bool, bound float64) string {
	if len(parent) == 0 || len(parent) != len(change) {
		return "missing"
	}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	pq1, pq3 := quartiles(parent)
	cq1, cq3 := quartiles(change)
	// worse is the change's relative move in the bad direction.
	worse := (cm - pm) / pm
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	spread := math.Max((pq3-pq1)/math.Abs(pm), (cq3-cq1)/math.Abs(cm))
	verdict := "same"
	switch {
	case wins*10 >= 9*len(parent) && math.Abs(cm-pm) > pq3-pq1 && better(cm, pm):
		verdict = "GAIN"
	case spread > bound && !allBetter:
		verdict = "unresolved"
	case worse > bound:
		verdict = "REGRESSION"
	}
	return fmt.Sprintf("%s %+.1f%% %d/%d", verdict, -worse*100, wins, len(parent))
}
