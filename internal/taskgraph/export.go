package taskgraph

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

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
func FromJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("taskgraph: decoding graph JSON: %w", err)
	}
	inv := registers.NewInventory()
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
