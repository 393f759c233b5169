package taskgraph

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"seadopt/internal/jsonscan"
	"seadopt/internal/registers"
)

// DOT renders the graph in Graphviz dot syntax, with computation costs on
// nodes and communication costs on edges.
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.name)
	sb.WriteString("  rankdir=TB;\n")
	for _, t := range g.tasks {
		fmt.Fprintf(&sb, "  t%d [label=\"%s\\n%d cyc\"];\n", t.ID, t.Name, t.Cycles)
	}
	for _, es := range g.succ {
		for _, e := range es {
			fmt.Fprintf(&sb, "  t%d -> t%d [label=\"%d\"];\n", e.From, e.To, e.Cycles)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// jsonGraph is the serialized form of a Graph.
type jsonGraph struct {
	Name      string         `json:"name"`
	Registers []jsonRegister `json:"registers"`
	Tasks     []jsonTask     `json:"tasks"`
	Edges     []jsonEdge     `json:"edges"`
}

type jsonRegister struct {
	ID   string `json:"id"`
	Bits int64  `json:"bits"`
}

type jsonTask struct {
	Name      string   `json:"name"`
	Cycles    int64    `json:"cycles"`
	Registers []string `json:"registers"`
}

type jsonEdge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Cycles int64 `json:"cycles"`
}

// MarshalJSON serializes the graph, including its register inventory, into a
// self-contained JSON document.
//
// The encoding is canonical: registers sorted by ID, tasks in ID order with
// sorted register footprints, edges sorted by (from, to), and empty
// collections encode as [] rather than null. Marshaling a graph
// reconstructed by FromJSON reproduces the original bytes, and two graphs
// that differ only in register-declaration or edge-declaration order encode
// identically — which is what content-addressed caching keys rely on. Task
// numbering is semantic (TaskIDs are positional), so task order is the one
// dimension identity is sensitive to.
//
// The bytes are exactly those json.Marshal produces for the jsonGraph form
// (compact and HTML-escaped; reference_test.go holds that encoder as the
// oracle), so callers may splice them into a larger document verbatim.
func (g *Graph) MarshalJSON() ([]byte, error) {
	regIDs := g.inventory.IDs()
	sort.Strings(regIDs)
	// Size the buffer from the element counts so it is allocated once.
	size := 64 + 40*len(regIDs)
	for i, t := range g.tasks {
		size += 48 + 16*t.Registers.Len() + 40*len(g.succ[i])
	}
	buf := make([]byte, 0, size)
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, g.name)
	buf = append(buf, `,"registers":[`...)
	for i, id := range regIDs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = appendJSONString(buf, id)
		buf = append(buf, `,"bits":`...)
		buf = strconv.AppendInt(buf, g.inventory.Bits(id), 10)
		buf = append(buf, '}')
	}
	buf = append(buf, `],"tasks":[`...)
	for i, t := range g.tasks {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = appendJSONString(buf, t.Name)
		buf = append(buf, `,"cycles":`...)
		buf = strconv.AppendInt(buf, t.Cycles, 10)
		buf = append(buf, `,"registers":[`...)
		for k, id := range t.Registers.IDs() {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, id)
		}
		buf = append(buf, "]}"...)
	}
	buf = append(buf, `],"edges":[`...)
	// Sources are visited in ID order, so sorting each successor list by
	// destination yields the (from, to) order.
	var out []Edge
	first := true
	for _, es := range g.succ {
		out = append(out[:0], es...)
		slices.SortFunc(out, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		for _, e := range out {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, `{"from":`...)
			buf = strconv.AppendInt(buf, int64(e.From), 10)
			buf = append(buf, `,"to":`...)
			buf = strconv.AppendInt(buf, int64(e.To), 10)
			buf = append(buf, `,"cycles":`...)
			buf = strconv.AppendInt(buf, e.Cycles, 10)
			buf = append(buf, '}')
		}
	}
	return append(buf, "]}"...), nil
}

// appendJSONString appends s as encoding/json writes a string. Printable
// ASCII other than the quote, the backslash and the HTML-escaped <, > and &
// is copied verbatim; any other string is delegated to json.Marshal, whose
// escaping (HTML characters, control bytes, U+2028/U+2029, invalid UTF-8)
// is the reference.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// FromJSON reconstructs a Graph from the output of MarshalJSON. The result
// passes the full Builder validation (well-formed costs, no duplicate or
// dangling edges, acyclic), and re-marshaling it reproduces the canonical
// form of the input byte-for-byte.
//
// A direct reader decodes, in one pass, the documents MarshalJSON and the
// service's clients write: insignificant whitespace; the keys of the
// jsonGraph form, spelled exactly, each at most once per object and in any
// order; strings of printable ASCII without a backslash; and integers that
// fit their fields. Any other input (null, escapes, non-ASCII bytes,
// unknown, case-variant or duplicate keys, fractions, exponents, overflow,
// trailing data) is decoded by json.Unmarshal. Both fill the same
// jsonGraph, which build turns into the Graph, so which decoder runs
// changes no result and no error.
func FromJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if s := jsonscan.New(data); !jg.read(&s) || !s.End() {
		jg = jsonGraph{}
		if err := json.Unmarshal(data, &jg); err != nil {
			return nil, fmt.Errorf("taskgraph: decoding graph JSON: %w", err)
		}
	}
	return jg.build()
}

// build makes the Graph that a decoded document describes. The size caps
// are checked on the decoded counts before anything is built from them.
func (jg *jsonGraph) build() (*Graph, error) {
	if err := checkCaps(jg.Name, len(jg.Tasks), len(jg.Edges), len(jg.Registers)); err != nil {
		return nil, fmt.Errorf("taskgraph: decoding graph JSON: %w", err)
	}
	inv := registers.NewInventory(len(jg.Registers))
	for _, r := range jg.Registers {
		if err := inv.Add(r.ID, r.Bits); err != nil {
			return nil, fmt.Errorf("taskgraph: decoding graph JSON: %w", err)
		}
	}
	b := NewBuilder(jg.Name, inv)
	for i, t := range jg.Tasks {
		if int(b.AddTask(t.Name, t.Cycles, t.Registers...)) != i {
			return nil, fmt.Errorf("taskgraph: decoding graph JSON: task %d misnumbered", i)
		}
	}
	for _, e := range jg.Edges {
		if e.From < 0 || e.From >= len(jg.Tasks) || e.To < 0 || e.To >= len(jg.Tasks) {
			return nil, fmt.Errorf("taskgraph: decoding graph JSON: edge %d->%d references a task outside [0,%d)",
				e.From, e.To, len(jg.Tasks))
		}
		b.AddEdge(TaskID(e.From), TaskID(e.To), e.Cycles)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("taskgraph: decoding graph JSON: %w", err)
	}
	return g, nil
}

// read fills jg from the graph object at the cursor of s and reports
// whether the object was in the direct reader's subset (see FromJSON). An
// absent key leaves its zero value and [] an empty, non-nil slice, as
// encoding/json does.
func (jg *jsonGraph) read(s *jsonscan.Scanner) bool {
	var seen uint8
	for more := s.Object(); more; more = s.More('}') {
		switch field(s, &seen, "name", "registers", "tasks", "edges") {
		case 0:
			jg.Name = string(s.Text())
		case 1:
			jg.Registers = readRegisters(s)
		case 2:
			jg.Tasks = readTasks(s)
		case 3:
			jg.Edges = readEdges(s)
		}
	}
	return s.OK()
}

func readRegisters(s *jsonscan.Scanner) []jsonRegister {
	regs := make([]jsonRegister, 0, 64)
	for more := s.Array(); more; more = s.More(']') {
		var r jsonRegister
		var seen uint8
		for more := s.Object(); more; more = s.More('}') {
			switch field(s, &seen, "id", "bits") {
			case 0:
				r.ID = string(s.Text())
			case 1:
				r.Bits = s.Int(64)
			}
		}
		regs = append(regs, r)
	}
	return regs
}

// readTasks reads the tasks array. The tasks' register references share
// one backing array.
func readTasks(s *jsonscan.Scanner) []jsonTask {
	tasks := make([]jsonTask, 0, 64)
	refs := make([]string, 0, 256)
	for more := s.Array(); more; more = s.More(']') {
		var t jsonTask
		var seen uint8
		for more := s.Object(); more; more = s.More('}') {
			switch field(s, &seen, "name", "cycles", "registers") {
			case 0:
				t.Name = string(s.Text())
			case 1:
				t.Cycles = s.Int(64)
			case 2:
				start := len(refs)
				for more := s.Array(); more; more = s.More(']') {
					refs = append(refs, string(s.Text()))
				}
				t.Registers = refs[start:len(refs):len(refs)]
			}
		}
		tasks = append(tasks, t)
	}
	return tasks
}

func readEdges(s *jsonscan.Scanner) []jsonEdge {
	edges := make([]jsonEdge, 0, 64)
	for more := s.Array(); more; more = s.More(']') {
		var e jsonEdge
		var seen uint8
		for more := s.Object(); more; more = s.More('}') {
			switch field(s, &seen, "from", "to", "cycles") {
			case 0:
				e.From = int(s.Int(strconv.IntSize))
			case 1:
				e.To = int(s.Int(strconv.IntSize))
			case 2:
				e.Cycles = s.Int(64)
			}
		}
		edges = append(edges, e)
	}
	return edges
}

// field reads an object member's key and returns its index in keys. A key
// not in keys, or one already in seen (a bit per index), fails the scan.
func field(s *jsonscan.Scanner, seen *uint8, keys ...string) int {
	key := s.Key()
	for i, k := range keys {
		if string(key) == k && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return i
		}
	}
	s.Fail()
	return -1
}

// UnmarshalJSON lets a Graph deserialize in place (json.Unmarshal into
// *Graph), so wire structs can embed graphs directly. It is FromJSON with
// pointer-receiver plumbing.
func (g *Graph) UnmarshalJSON(data []byte) error {
	gg, err := FromJSON(data)
	if err != nil {
		return err
	}
	*g = *gg
	return nil
}
