package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"seadopt/internal/registers"
)

// marshalJSONReference is the reflection encoder MarshalJSON replaced, kept
// verbatim as its oracle: json.Marshal of the jsonGraph form.
func marshalJSONReference(g *Graph) ([]byte, error) {
	jg := jsonGraph{
		Name:      g.name,
		Registers: make([]jsonRegister, 0, g.inventory.Len()),
		Tasks:     make([]jsonTask, 0, len(g.tasks)),
		Edges:     make([]jsonEdge, 0),
	}
	regIDs := g.inventory.IDs()
	sort.Strings(regIDs)
	for _, id := range regIDs {
		r, _ := g.inventory.Get(id)
		jg.Registers = append(jg.Registers, jsonRegister{ID: r.ID, Bits: r.Bits})
	}
	for _, t := range g.tasks {
		regs := t.Registers.IDs()
		if regs == nil {
			regs = []string{}
		}
		jg.Tasks = append(jg.Tasks, jsonTask{Name: t.Name, Cycles: t.Cycles, Registers: regs})
	}
	for _, es := range g.succ {
		for _, e := range es {
			jg.Edges = append(jg.Edges, jsonEdge{From: int(e.From), To: int(e.To), Cycles: e.Cycles})
		}
	}
	sort.Slice(jg.Edges, func(i, j int) bool {
		if jg.Edges[i].From != jg.Edges[j].From {
			return jg.Edges[i].From < jg.Edges[j].From
		}
		return jg.Edges[i].To < jg.Edges[j].To
	})
	return json.Marshal(jg)
}

// matchesReference fails t unless MarshalJSON and the reflection oracle
// encode g to the same bytes.
func matchesReference(t *testing.T, g *Graph) {
	t.Helper()
	got, err := g.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	want, err := marshalJSONReference(g)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("direct encoding differs from the reference:\n got %q\nwant %q", got, want)
	}
}

// escapeGraph names its graph, tasks and registers with every kind of
// string encoding/json escapes, one kind per string: each HTML character,
// the quote and backslash, control bytes, invalid UTF-8, each JavaScript
// line separator and non-ASCII letters. Its edges are declared out of
// (from, to) order.
func escapeGraph(t *testing.T) *Graph {
	t.Helper()
	names := []string{
		"less<than",
		"greater>than",
		"amp&ersand",
		`say "hi"`,
		`back\slash`,
		"tab\tnul\x00unit\x1f",
		"del\x7f",
		"bad\xff\xfeutf8\xc3",
		"line\u2028sep",
		"para\u2029sep",
		"Ünïcødé ταυ 任务",
		"plain-ascii_0~",
	}
	inv := registers.NewInventory()
	for i, n := range names {
		inv.MustAdd(n, int64(8*(i+1)))
	}
	b := NewBuilder("graph<name", inv)
	for i, n := range names {
		b.AddTask(n, int64(1000+i), names[i], names[(i+3)%len(names)])
	}
	for _, e := range [][2]int{{0, 5}, {0, 2}, {3, 7}, {1, 4}, {0, 1}, {2, 6}, {5, 7}, {8, 11}, {4, 9}, {9, 10}} {
		b.AddEdge(TaskID(e[0]), TaskID(e[1]), int64(e[0]*10+e[1]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMarshalJSONMatchesReference: the direct encoder writes the bytes the
// reflection encoder wrote, on the paper's workloads, on 540 §V random
// graphs of 10 to 120 tasks and on a graph whose strings need every kind of
// escape. Problem keys and fingerprints hash these bytes.
func TestMarshalJSONMatchesReference(t *testing.T) {
	matchesReference(t, MPEG2())
	matchesReference(t, Fig8())
	matchesReference(t, escapeGraph(t))
	for n := 10; n <= 120; n += 10 {
		for seed := int64(1); seed <= 45; seed++ {
			g, err := Random(DefaultRandomConfig(n), seed)
			if err != nil {
				t.Fatalf("Random(%d, %d): %v", n, seed, err)
			}
			t.Run(fmt.Sprintf("random-%d-%d", n, seed), func(t *testing.T) { matchesReference(t, g) })
		}
	}
}

// FuzzMarshalJSONMatchesReference: every document FromJSON accepts encodes
// to the same bytes through the direct encoder and the reflection oracle.
func FuzzMarshalJSONMatchesReference(f *testing.F) {
	for _, g := range []*Graph{MPEG2(), Fig8()} {
		doc, err := g.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		g, err := FromJSON(doc)
		if err != nil {
			return
		}
		matchesReference(t, g)
	})
}
