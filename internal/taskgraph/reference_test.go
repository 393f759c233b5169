package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"seadopt/internal/jsonscan"
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
		jg.Registers = append(jg.Registers, jsonRegister{ID: id, Bits: g.inventory.Bits(id)})
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

// topoReference is the topological sort Build ran before its ready set
// became a heap, kept verbatim as the oracle of computeTopo: Kahn's
// algorithm re-sorting the ready list on every pop.
func (g *Graph) topoReference() ([]TaskID, error) {
	indeg := make([]int, len(g.tasks))
	for _, edges := range g.succ {
		for _, e := range edges {
			indeg[e.To]++
		}
	}
	var ready []TaskID
	for id := range g.tasks {
		if indeg[id] == 0 {
			ready = append(ready, TaskID(id))
		}
	}
	order := make([]TaskID, 0, len(g.tasks))
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		t := ready[0]
		ready = ready[1:]
		order = append(order, t)
		for _, e := range g.succ[t] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(order) != len(g.tasks) {
		return nil, fmt.Errorf("taskgraph: graph %q contains a cycle", g.name)
	}
	return order, nil
}

// starBuilder is a MaxTasks-task star: task 0 feeds every other task, so
// all but one task are ready at once.
func starBuilder() *Builder {
	b := NewBuilder("star", registers.NewInventory())
	for i := 0; i < MaxTasks; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 1)
	}
	for i := 1; i < MaxTasks; i++ {
		b.AddEdge(0, TaskID(i), 1)
	}
	return b
}

// layeredBuilder is a MaxTasks-task layered graph: 64 layers of 64 tasks,
// where task j of a layer feeds tasks j and j+1 (mod 64) of the next.
func layeredBuilder() *Builder {
	const width = 64
	b := NewBuilder("layered", registers.NewInventory())
	for i := 0; i < MaxTasks; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 1)
	}
	for i := 0; i+width < MaxTasks; i++ {
		next := i - i%width + width
		b.AddEdge(TaskID(i), TaskID(next+i%width), 1)
		b.AddEdge(TaskID(i), TaskID(next+(i+1)%width), 1)
	}
	return b
}

// TestTopoOrderMatchesReference: Build's heap-ordered topological sort
// yields the order of the sort-per-pop algorithm it replaced, on the
// paper's workloads, §V graphs of 10 to 120 tasks and star and layered
// graphs at the task cap.
func TestTopoOrderMatchesReference(t *testing.T) {
	graphs := []*Graph{MPEG2(), Fig8(), starBuilder().MustBuild(), layeredBuilder().MustBuild()}
	for n := 10; n <= 120; n += 10 {
		for seed := int64(1); seed <= 5; seed++ {
			graphs = append(graphs, MustRandom(DefaultRandomConfig(n), seed))
		}
	}
	for _, g := range graphs {
		want, err := g.topoReference()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if got := g.TopoOrder(); !slices.Equal(got, want) {
			t.Fatalf("%s: topological order %v, want %v", g.Name(), got, want)
		}
	}
}

// BenchmarkBuildStar4096 builds the MaxTasks-task star, whose ready set
// holds 4 095 tasks at once.
func BenchmarkBuildStar4096(b *testing.B) {
	sb := starBuilder()
	b.ReportAllocs()
	for range b.N {
		if _, err := sb.Build(); err != nil {
			b.Fatal(err)
		}
	}
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
// escape. Problem keys and fingerprints hash these bytes. FromJSON's direct
// reader takes the encoding of every graph but the escape-heavy one, also
// indented and with its keys permuted, and decodes it as encoding/json does.
func TestMarshalJSONMatchesReference(t *testing.T) {
	for _, g := range []*Graph{MPEG2(), Fig8()} {
		matchesReference(t, g)
		readerTakes(t, g)
	}
	eg := escapeGraph(t)
	matchesReference(t, eg)
	doc, err := eg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if readerMatchesUnmarshal(t, doc) {
		t.Fatal("the direct reader took a document with escaped strings")
	}
	fromJSONMatchesReference(t, doc)
	for n := 10; n <= 120; n += 10 {
		for seed := int64(1); seed <= 45; seed++ {
			g, err := Random(DefaultRandomConfig(n), seed)
			if err != nil {
				t.Fatalf("Random(%d, %d): %v", n, seed, err)
			}
			t.Run(fmt.Sprintf("random-%d-%d", n, seed), func(t *testing.T) {
				matchesReference(t, g)
				readerTakes(t, g)
			})
		}
	}
}

// matchesBytes fails t unless g marshals to want.
func matchesBytes(t *testing.T, g *Graph, want []byte) {
	t.Helper()
	got, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("graph encodes as\n%s\nwant\n%s", got, want)
	}
}

// readerVariants are documents of g that the service's traffic carries —
// the canonical encoding, the same indented as jq prints it, and the same
// with the keys of every object in reverse order — and what
// json.Unmarshal decodes from each.
func readerVariants(t testing.TB, g *Graph) ([][]byte, jsonGraph) {
	t.Helper()
	doc, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	var jg jsonGraph
	if err := json.Unmarshal(doc, &jg); err != nil {
		t.Fatal(err)
	}
	return [][]byte{doc, indented.Bytes(), reversedKeys(jg)}, jg
}

// reversedKeys encodes jg with the keys of every object in reverse order.
func reversedKeys(jg jsonGraph) []byte {
	q := func(s string) string { b, _ := json.Marshal(s); return string(b) }
	var b strings.Builder
	b.WriteString(`{"edges":[`)
	for i, e := range jg.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"cycles":%d,"to":%d,"from":%d}`, e.Cycles, e.To, e.From)
	}
	b.WriteString(`],"tasks":[`)
	for i, t := range jg.Tasks {
		if i > 0 {
			b.WriteByte(',')
		}
		refs := make([]string, len(t.Registers))
		for k, r := range t.Registers {
			refs[k] = q(r)
		}
		fmt.Fprintf(&b, `{"registers":[%s],"cycles":%d,"name":%s}`, strings.Join(refs, ","), t.Cycles, q(t.Name))
	}
	b.WriteString(`],"registers":[`)
	for i, r := range jg.Registers {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"bits":%d,"id":%s}`, r.Bits, q(r.ID))
	}
	fmt.Fprintf(&b, `],"name":%s}`, q(jg.Name))
	return []byte(b.String())
}

// readerTakes fails t unless the direct reader takes every reader variant
// of g and decodes it as json.Unmarshal does, and FromJSON rebuilds g.
func readerTakes(t *testing.T, g *Graph) {
	t.Helper()
	variants, want := readerVariants(t, g)
	for _, doc := range variants {
		if got, ok := readDirect(doc); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("the direct reader declined or misread\n%s", doc)
		}
	}
	back, err := FromJSON(variants[0])
	if err != nil {
		t.Fatalf("FromJSON: %v", err)
	}
	matchesBytes(t, back, variants[0])
}

// readDirect runs FromJSON's direct reader alone on doc and reports
// whether it took the whole document.
func readDirect(doc []byte) (jsonGraph, bool) {
	var jg jsonGraph
	s := jsonscan.New(doc)
	ok := jg.read(&s) && s.End()
	return jg, ok
}

// readerMatchesUnmarshal is the direct reader's oracle: when the reader
// takes doc, json.Unmarshal into a fresh jsonGraph accepts doc too and
// decodes the same value. It reports whether the reader took doc.
func readerMatchesUnmarshal(t *testing.T, doc []byte) bool {
	t.Helper()
	got, ok := readDirect(doc)
	if !ok {
		return false
	}
	var want jsonGraph
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatalf("the direct reader took %q, which encoding/json refuses: %v", doc, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the direct reader decoded %q as\n%#v\nencoding/json as\n%#v", doc, got, want)
	}
	return true
}

// nearMissBase is a small graph document in the direct reader's subset;
// nearMisses each change one token of it to one the reader must decline.
const nearMissBase = `{"name":"g","registers":[{"id":"r","bits":8}],` +
	`"tasks":[{"name":"a","cycles":5,"registers":["r"]},{"name":"b","cycles":7,"registers":[]}],` +
	`"edges":[{"from":0,"to":1,"cycles":3}]}`

var nearMisses = []struct{ old, new string }{
	{`"cycles":5`, `"cycles":+1`},
	{`"cycles":5`, `"cycles":01`},
	{`"cycles":5`, `"cycles":1.0`},
	{`"cycles":5`, `"cycles":1e3`},
	{`"cycles":5`, `"cycles":-`},
	{`"bits":8`, `"bits":9223372036854775808`},
	{`"from":0`, `"from":-9223372036854775809`},
	{`"name":"a"`, `"name":"a\u0062"`},
	{`"name":"a"`, `"name":"\u00e4"`},
	{`"name":"a"`, "\"name\":\"\xc3\xa4\""},
	{`{"name":"g"`, `{"Name":"g"`},
	{`{"name":"g"`, `{"name":"g","name":"h"`},
	{`{"name":"a"`, `{"name":"a","cycles":9`},
	{`"registers":[]`, `"registers":null`},
	{`"edges":[`, `"edgs":[`},
	{`3}]}`, `3}]} {}`},
	{nearMissBase, `null`},
}

// TestReaderDeclinesNearMisses: a document one token outside the direct
// reader's subset goes to json.Unmarshal, which alone decides it.
func TestReaderDeclinesNearMisses(t *testing.T) {
	if _, ok := readDirect([]byte(nearMissBase)); !ok {
		t.Fatalf("the direct reader declined the base document")
	}
	for _, nm := range nearMisses {
		doc := []byte(strings.Replace(nearMissBase, nm.old, nm.new, 1))
		if _, ok := readDirect(doc); ok {
			t.Errorf("the direct reader took %s", doc)
		}
		fromJSONMatchesReference(t, doc)
	}
}

// fromJSONMatchesReference fails t unless FromJSON decodes doc as
// json.Unmarshal and the shared build step do: the same error, or a graph
// with the same encoding.
func fromJSONMatchesReference(t *testing.T, doc []byte) {
	t.Helper()
	var jg jsonGraph
	var wantG *Graph
	want := json.Unmarshal(doc, &jg)
	if want == nil {
		wantG, want = jg.build()
	}
	got, err := FromJSON(doc)
	switch {
	case err != nil || want != nil:
		if err == nil || want == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Fatalf("%s: FromJSON error %v, want %v", doc, err, want)
		}
	default:
		wantDoc, err := wantG.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		matchesBytes(t, got, wantDoc)
	}
}

// FuzzMarshalJSONMatchesReference: every document FromJSON accepts encodes
// to the same bytes through the direct encoder and the reflection oracle,
// and every document FromJSON's direct reader takes decodes as
// encoding/json decodes it.
func FuzzMarshalJSONMatchesReference(f *testing.F) {
	for _, g := range []*Graph{MPEG2(), Fig8()} {
		variants, _ := readerVariants(f, g)
		for _, doc := range variants {
			f.Add(doc)
		}
	}
	f.Add([]byte(nearMissBase))
	for _, nm := range nearMisses {
		f.Add([]byte(strings.Replace(nearMissBase, nm.old, nm.new, 1)))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		readerMatchesUnmarshal(t, doc)
		g, err := FromJSON(doc)
		if err != nil {
			return
		}
		matchesReference(t, g)
	})
}
