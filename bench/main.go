// Command bench is the end-to-end and per-layer benchmark of the seadopt
// design optimizer. It drives one workload per run, from outside the
// program: in-process solves through the public seadopt API, and jobs
// against a real seadoptd process over HTTP. It checks every result against
// recorded digests and prints its metrics, then, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {"op_p50_s": {"value": 0.52, "unit": "s"}, ...}}
//
// Run it through run.sh, which builds this program and seadoptd from the
// checkout and keeps every build output under .bench_build:
//
//	bash bench/run.sh --workload flagship_ideal --seed 11 --seconds 10 --trace 0
//	bash bench/run.sh compare <parent-checkout> <change-checkout>
//	bash bench/run.sh -update-golden
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// records spans (written to trace.json), attaches the engine's telemetry and
// times the per-layer rungs, and the metrics are the per-layer set. See
// README.md for the workloads, the metrics and the paired protocol.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// options is one benchmark invocation.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	seadoptd     string // seadoptd binary, for the service workloads
	golden       string // recorded result digests
	out          string // directory for run state, logs and trace.json
	updateGolden bool
	size         sizes
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(ctx, os.Args[2:], os.Stdout)
	} else {
		err = benchMain(ctx, os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchMain(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&o.seed, "seed", 11, "workload seed: the order in which a run submits its problem corpus")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase on the reference host; it sets a fixed amount of work")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.seadoptd, "seadoptd", "", "seadoptd binary (required by the service workloads)")
	fs.StringVar(&o.golden, "golden", "bench/testdata/golden.json", "recorded result digests")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for daemon stores, logs and trace.json")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "recompute every workload's result digests in-process and write them to -golden")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o.size = fullSize
	if o.updateGolden {
		return updateGolden(ctx, o, stdout)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 0 {
		return fmt.Errorf("--seconds must not be negative")
	}
	res, err := runWorkload(ctx, o, stdout)
	if err != nil {
		return err
	}
	return printResult(stdout, res, o.trace)
}

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is everything one run measured. Both metric sets are filled when
// they were measured; the final line carries the set the mode selects.
type result struct {
	Attempted int
	Failed    int
	// Problems lists why operations counted as failed (bounded).
	Problems []string
	E2E      []metric
	Layer    []metric
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// printResult writes the human-readable report and the final JSON line.
func printResult(w io.Writer, res *result, traced bool) error {
	for _, p := range res.Problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	printSet := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	e2eTitle := "end-to-end"
	if traced {
		e2eTitle = "end-to-end (traced run; for the tracing overhead only)"
	}
	printSet(e2eTitle, res.E2E)
	printSet("per-layer", res.Layer)

	selected := res.E2E
	if traced {
		selected = res.Layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.Failed == 0 && res.Attempted > 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]value, len(selected)),
	}
	for _, m := range selected {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// errStopped reports that the run was interrupted by a signal.
var errStopped = errors.New("interrupted")
