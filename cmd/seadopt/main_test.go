package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seadopt/internal/faults"
	"seadopt/internal/ingest"
	"seadopt/internal/mapping"
	"seadopt/internal/pareto"
)

// -update regenerates the golden files from the current output:
//
//	go test ./cmd/seadopt -update
//
// The CLI's output is a pure function of its flags — the engine is
// deterministic at any parallelism, the fault-injection campaign is seeded,
// and every invocation below pins its seed — so the files are stable. They
// encode floating-point results produced on the CI architecture; regenerate
// rather than hand-edit.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from current output")

// runCLI drives the command in-process and returns its stdout, stderr and
// exit code.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// checkGolden diffs got against testdata/<name>.golden, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test ./cmd/seadopt -update` to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// TestGoldenMPEG2Scalar is the end-to-end text invocation of the README's
// first example: MPEG-2, scalar optimization, fault injection on the chosen
// design.
func TestGoldenMPEG2Scalar(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-graph", "mpeg2", "-seed", "2010", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "mpeg2_scalar", stdout)
}

// TestGoldenMPEG2Pareto covers the frontier path end to end.
func TestGoldenMPEG2Pareto(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-graph", "mpeg2", "-pareto", "-seed", "2010")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "mpeg2_pareto", stdout)
}

// TestGoldenMPEG2JSON covers the machine-readable path: stdout must carry
// exactly the wire JSON (the encoding seadoptd serves), with all narration
// on stderr.
func TestGoldenMPEG2JSON(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-graph", "mpeg2", "-seed", "2010", "-json", "-inject=false")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	var wire map[string]any
	if err := json.Unmarshal([]byte(stdout), &wire); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", err, stdout)
	}
	for _, key := range []string{"graph", "scaling", "mapping", "eval", "cores"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("wire JSON missing %q", key)
		}
	}
	checkGolden(t, "mpeg2_json", stdout)
}

// TestGoldenHeterogeneousPlatform exercises the -platform spec path with a
// progress stream over the mixed-radix enumeration.
func TestGoldenHeterogeneousPlatform(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-graph", "mpeg2", "-seed", "2010",
		"-platform", filepath.Join("testdata", "mixed.json"),
		"-progress", "-inject=false")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "mpeg2_hetero", stdout)
}

// TestGoldenNoCPlatform: the -platform spec path with a contended 2D-mesh
// interconnect — the fabric must flow through the CLI end to end and leave
// the output byte-stable.
func TestGoldenNoCPlatform(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-graph", "mpeg2", "-seed", "2010",
		"-platform", filepath.Join("testdata", "noc.json"),
		"-inject=false")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "mpeg2_noc", stdout)
}

// TestGoldenDumpGraph: the canonical graph dump is the documented way to
// pipe a workload into seadoptd; it must stay byte-stable.
func TestGoldenDumpGraph(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-graph", "fig8", "-dump-graph")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "fig8_dump", stdout)
}

// TestGoldenMPEG2DeadlineSweep: the -deadline-sweep range form evaluates
// every point over one shared reuse layer and lists one design per
// deadline; the text output must stay byte-stable.
func TestGoldenMPEG2DeadlineSweep(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-graph", "mpeg2", "-seed", "2010",
		"-deadline-sweep", "13:15:1", "-inject=false")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "mpeg2_sweep", stdout)

	// -cold-sweep disables warm-starting but must not change any design.
	coldOut, stderr, code := runCLI(t,
		"-graph", "mpeg2", "-seed", "2010",
		"-deadline-sweep", "13:15:1", "-cold-sweep", "-inject=false")
	if code != 0 {
		t.Fatalf("cold sweep exit code %d, stderr:\n%s", code, stderr)
	}
	if coldOut != stdout {
		t.Errorf("-cold-sweep changed the sweep output:\n--- warm ---\n%s--- cold ---\n%s", stdout, coldOut)
	}
}

// TestCLISweepSpecJSON drives a Pareto sweep from a -sweep-spec file and
// checks the machine-readable output: one frontier per (deadline ×
// objective set) point.
func TestCLISweepSpecJSON(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "sweep.json")
	doc := `{"deadlines": [14, 14.581], "point_mode": "pareto", "objective_sets": ["", "power,makespan"]}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t,
		"-graph", "mpeg2", "-seed", "2010",
		"-sweep-spec", spec, "-json", "-inject=false")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	var points []struct {
		Point       int             `json:"point"`
		DeadlineSec float64         `json:"deadline_sec"`
		Objectives  string          `json:"objectives"`
		Frontier    json.RawMessage `json:"frontier"`
	}
	if err := json.Unmarshal([]byte(stdout), &points); err != nil {
		t.Fatalf("stdout is not a JSON point array: %v\n%s", err, stdout)
	}
	if len(points) != 4 {
		t.Fatalf("%d points for 2 deadlines x 2 objective sets, want 4", len(points))
	}
	for i, pt := range points {
		if pt.Point != i+1 {
			t.Errorf("point %d numbered %d, want 1-based order", i, pt.Point)
		}
		if len(pt.Frontier) == 0 {
			t.Errorf("point %d has no frontier", pt.Point)
		}
	}
}

// TestCLISweepSpecRejectedBeforeBanner: a -sweep-spec that a mode=sweep
// job would fail validation with exits 1 naming the fault before the
// sweep banner, with nothing run.
func TestCLISweepSpecRejectedBeforeBanner(t *testing.T) {
	for _, doc := range []string{
		`{"deadlines": [-1, 10]}`,
		`{"deadlines": []}`,
		`{"deadlines": [10], "point_mode": "sweep"}`,
		`{"deadlines": [10], "objective_sets": ["power"]}`,
		`{"deadlines": [10], "point_mode": "pareto", "objective_sets": ["nonsense"]}`,
		`{"deadlines": [10], "unknown": 1}`,
	} {
		spec := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := runCLI(t, "-graph", "mpeg2", "-sweep-spec", spec, "-inject=false")
		if code != 1 || !strings.Contains(stderr, "seadopt: sweep spec") {
			t.Errorf("spec %s: exit code %d, stderr %q; want 1 naming the sweep spec", doc, code, stderr)
		}
		if strings.Contains(stdout, "sweeping") {
			t.Errorf("spec %s: the sweep started before the spec was refused:\n%s", doc, stdout)
		}
	}
}

// FuzzSweepSpec holds decodeSweepSpec to the engine: every spec it accepts
// yields at least one deadline, and every point it expands to passes the
// engine's own configuration check, so an accepted spec never fails after
// the sweep banner; objective sets come only with pareto points.
func FuzzSweepSpec(f *testing.F) {
	for _, doc := range []string{
		`{"deadlines": [14, 14.581], "point_mode": "pareto", "objective_sets": ["", "power,makespan"]}`,
		`{"deadlines": [13, 15], "point_mode": "scalar", "no_warm_start": true}`,
		`{"deadlines": [-1, 10]}`,
		`{"deadlines": [0], "point_mode": "frontier", "objective_sets": ["gamma"]}`,
		`{"deadlines": [1e308], "objective_sets": []}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		deadlines, objSets, _, err := decodeSweepSpec(data)
		if err != nil {
			return
		}
		if len(deadlines) == 0 {
			t.Fatalf("accepted %q with no deadline", data)
		}
		var doc sweepSpecDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", data, err)
		}
		if pm, _ := ingest.ParseMode(doc.PointMode); (pm == ingest.ModePareto) != (objSets != nil) {
			t.Fatalf("accepted %q: point mode %q with %d objective sets", data, doc.PointMode, len(objSets))
		}
		for _, d := range deadlines {
			cfg := mapping.Config{DeadlineSec: d, SER: faults.NewSERModel(faults.DefaultSER)}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("accepted %q, but the engine refuses deadline %v: %v", data, d, err)
			}
			for _, o := range objSets {
				if _, err := pareto.NewFold[struct{}](o); err != nil {
					t.Fatalf("accepted %q, but the engine refuses objectives %v: %v", data, o, err)
				}
			}
		}
	})
}

// TestCLIErrors: flag and input mistakes exit 1 with a message, without
// touching the golden files.
func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"-graph", "nonsense"},
		{"-graph", "mpeg2", "-levels", "9"},
		{"-graph", "mpeg2", "-objectives", "power"}, // -objectives without -pareto
		{"-graph", "mpeg2", "-baseline", "nonsense"},
		{"-graph", "mpeg2", "-platform", "testdata/absent.json"},
		{"-graph", "mpeg2", "-pareto", "-baseline", "reg"},
		{"-graph", "mpeg2", "-strategy", "nonsense"},
		{"-graph", "mpeg2", "-deadline-sweep", "15:13:1"}, // hi < lo
		{"-graph", "mpeg2", "-deadline-sweep", "13:15:0"}, // zero step
		{"-graph", "mpeg2", "-deadline-sweep", "13:15"},   // not lo:hi:step
		{"-graph", "mpeg2", "-deadline-sweep", "13:15:1", "-baseline", "reg"},
		{"-graph", "mpeg2", "-sweep-spec", "testdata/absent.json"},
	}
	for _, args := range cases {
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 {
			t.Errorf("args %v: exit code %d, want 1 (stdout %q)", args, code, stdout)
		}
		if !strings.Contains(stderr, "seadopt:") {
			t.Errorf("args %v: stderr carries no error: %q", args, stderr)
		}
	}
}

// TestCLIDeadlineSweepNonFinite: a NaN or infinite bound or step is refused
// by name, before the range is expanded.
func TestCLIDeadlineSweepNonFinite(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"0.5:NaN:0.1", `hi "NaN" is not finite`},
		{"0.07:0.07:Inf", `step "Inf" is not finite`},
		{"-Inf:0.07:0.01", `lo "-Inf" is not finite`},
	} {
		_, stderr, code := runCLI(t, "-graph", "fig8", "-deadline-sweep", tc.spec)
		if code != 1 {
			t.Errorf("-deadline-sweep %s: exit code %d, want 1", tc.spec, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("-deadline-sweep %s: stderr %q does not say %s", tc.spec, stderr, tc.want)
		}
	}
}

// TestCLIInfeasibleExitCode: an impossible deadline exits 2 and warns.
func TestCLIInfeasibleExitCode(t *testing.T) {
	_, stderr, code := runCLI(t, "-graph", "fig8", "-deadline", "0.000001", "-inject=false")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "no deadline-meeting design") {
		t.Errorf("missing infeasibility warning, stderr: %q", stderr)
	}
}
