// Package ingest imports externally-authored task graphs into the optimizer.
//
// The optimizer's native workloads (MPEG-2, Fig. 8, §V random graphs) are
// constructed in code; serving arbitrary scenarios requires accepting task
// graphs authored outside this repository. The package understands three
// formats:
//
//   - JSON: the canonical self-contained encoding produced by
//     taskgraph.Graph.MarshalJSON (register inventory + tasks + edges).
//   - TGFF: the task-graph subset of the "Task Graphs For Free" generator
//     output (@TASK_GRAPH blocks with TASK/ARC statements, plus optional
//     @WCET/@COMMUN/@REGISTERS attribute tables).
//   - DOT: Graphviz digraphs, including the ones rendered by
//     taskgraph.Graph.DOT, with costs in `cycles`/`regbits` attributes or
//     parsed from "Name\nN cyc" labels.
//
// Every importer produces a validated taskgraph.Graph: structural errors
// (cycles, duplicate task IDs, duplicate edges, dangling references) and
// disconnected graphs are rejected with errors that name the offending
// element. Formats that carry no WCET or register data fall back to the
// deterministic defaulting rules below, so the same input bytes always
// produce the same graph — a prerequisite for the content-addressed
// ProblemKey the result cache is keyed by.
//
// # Defaulting rules
//
// TGFF types index the optional attribute tables; when a table is absent the
// defaults scale with the type so distinct types stay distinguishable:
//
//   - task cycles:   @WCET[type] if the table exists, else
//     DefaultComputeCycles × (type+1);
//   - arc cycles:    @COMMUN[type] if the table exists, else
//     DefaultCommCycles × (type+1);
//   - register bits: @REGISTERS[type] if the table exists, else
//     1024 × (1 + type mod 5) — the paper's 1–5 kbit footprint range.
//
// DOT nodes default to DefaultComputeCycles when neither a `cycles`
// attribute nor a "N cyc" label line is present, DOT edges default to zero
// communication cost, and every DOT/TGFF task owns one private register
// (`loc_<task>`) sized by the rules above (DefaultRegisterBits for DOT
// without a `regbits` attribute). Register *sharing* between tasks is only
// expressible in the JSON format, which carries the full inventory.
package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"seadopt/internal/taskgraph"
)

// Format identifies a task-graph interchange format.
type Format string

// The supported interchange formats.
const (
	FormatJSON Format = "json"
	FormatTGFF Format = "tgff"
	FormatDOT  Format = "dot"
)

// Deterministic defaulting constants (see the package comment).
const (
	// DefaultComputeCycles is one §V cost unit: 3.5e6 clock cycles.
	DefaultComputeCycles = taskgraph.RandomCycleUnit
	// DefaultCommCycles is the per-type communication default (0.1 unit).
	DefaultCommCycles = taskgraph.RandomCycleUnit / 10
	// DefaultRegisterBits sizes the private register of a DOT task that
	// carries no regbits attribute (2 kbit, mid of the paper's range).
	DefaultRegisterBits = 2048
)

// ParseFormat maps a user-supplied format name (or file extension) to a
// Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimPrefix(strings.TrimSpace(s), ".")) {
	case "json":
		return FormatJSON, nil
	case "tgff":
		return FormatTGFF, nil
	case "dot", "gv":
		return FormatDOT, nil
	default:
		return "", fmt.Errorf("ingest: unknown task-graph format %q (want json, tgff or dot)", s)
	}
}

// Detect sniffs the format of a task-graph document: '{' opens the JSON
// encoding, '@' opens a TGFF section, and a digraph keyword opens DOT.
// It returns an error when no format matches. It examines the leading
// lines in place, so sniffing a large document allocates nothing.
func Detect(data []byte) (Format, error) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		t := bytes.TrimSpace(line)
		switch {
		case len(t) == 0, t[0] == '#', bytes.HasPrefix(t, []byte("//")):
			continue
		case t[0] == '{':
			return FormatJSON, nil
		case t[0] == '@':
			return FormatTGFF, nil
		case bytes.HasPrefix(t, []byte("digraph")), bytes.HasPrefix(t, []byte("strict")), bytes.HasPrefix(t, []byte("graph")):
			return FormatDOT, nil
		default:
			return "", fmt.Errorf("ingest: cannot detect task-graph format from leading line %q", t)
		}
	}
	return "", fmt.Errorf("ingest: empty task-graph document")
}

// ParseBytes is Parse over an in-memory document.
func ParseBytes(f Format, data []byte) (*taskgraph.Graph, error) {
	var g *taskgraph.Graph
	var err error
	switch f {
	case FormatJSON:
		g, err = taskgraph.FromJSON(data)
	case FormatTGFF:
		g, err = parseTGFF(data)
	case FormatDOT:
		g, err = parseDOT(data)
	default:
		return nil, fmt.Errorf("ingest: unknown task-graph format %q (want json, tgff or dot)", f)
	}
	if err != nil {
		return nil, err
	}
	if err := ValidateGraph(g); err != nil {
		return nil, err
	}
	return g, nil
}

// overCap is the error of a DOT or TGFF parser that has met more of what
// (tasks or edges) than a task graph may hold. The parser stops there, so
// unlike taskgraph.Builder it cannot name the count.
func overCap(graph, what string, limit int) error {
	return fmt.Errorf("graph %q has more %s than the cap of %d", graph, what, limit)
}

// DecodeStrict decodes data, one JSON document, into v. It refuses unknown
// object fields and anything but whitespace after the document, which
// json.Decoder.Decode alone would silently ignore.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the JSON document at offset %d", dec.InputOffset())
	}
	return nil
}

// ValidateGraph enforces the ingestion contract on top of the structural
// checks taskgraph.Builder already performs (acyclicity, duplicate edges,
// dangling endpoints): task names must be unique, and the graph must be
// weakly connected — a disconnected "graph" is almost always two workloads
// pasted together, and scheduling them as one corrupts the deadline and
// exposure models.
func ValidateGraph(g *taskgraph.Graph) error {
	seen := make(map[string]taskgraph.TaskID, g.N())
	for _, t := range g.Tasks() {
		if prev, dup := seen[t.Name]; dup {
			return fmt.Errorf("ingest: duplicate task name %q (tasks %d and %d); task names are IDs and must be unique",
				t.Name, prev, t.ID)
		}
		seen[t.Name] = t.ID
	}
	// Weak connectivity: BFS from task 0 treating every edge as undirected.
	if g.N() > 1 {
		visited := make([]bool, g.N())
		queue := []taskgraph.TaskID{0}
		visited[0] = true
		count := 1
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			for _, e := range g.Succs(id) {
				if !visited[e.To] {
					visited[e.To] = true
					count++
					queue = append(queue, e.To)
				}
			}
			for _, e := range g.Preds(id) {
				if !visited[e.From] {
					visited[e.From] = true
					count++
					queue = append(queue, e.From)
				}
			}
		}
		if count != g.N() {
			for id, ok := range visited {
				if !ok {
					return fmt.Errorf("ingest: graph %q is not weakly connected: task %q (%d of %d tasks reachable from %q); split disconnected workloads into separate jobs",
						g.Name(), g.Task(taskgraph.TaskID(id)).Name, count, g.N(), g.Task(0).Name)
				}
			}
		}
	}
	return nil
}
