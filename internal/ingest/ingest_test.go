package ingest

import (
	"strings"
	"testing"

	"seadopt/internal/taskgraph"
)

func TestParseFormat(t *testing.T) {
	good := map[string]Format{
		"json": FormatJSON, "JSON": FormatJSON, ".json": FormatJSON,
		"tgff": FormatTGFF, ".tgff": FormatTGFF,
		"dot": FormatDOT, "gv": FormatDOT, ".gv": FormatDOT,
	}
	for in, want := range good {
		f, err := ParseFormat(in)
		if err != nil || f != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, f, err, want)
		}
	}
	for _, in := range []string{"", "xml", "graphml"} {
		if _, err := ParseFormat(in); err == nil {
			t.Errorf("ParseFormat(%q) accepted", in)
		}
	}
}

func TestDetect(t *testing.T) {
	cases := map[string]Format{
		"{\"name\":\"g\"}":                  FormatJSON,
		"# comment\n@TASK_GRAPH 0 {\n}":     FormatTGFF,
		"// c\ndigraph g { a; }":            FormatDOT,
		"  \n\nstrict digraph g { a -> b;}": FormatDOT,
	}
	for in, want := range cases {
		f, err := Detect([]byte(in))
		if err != nil || f != want {
			t.Errorf("Detect(%q) = %v, %v; want %v", in, f, err, want)
		}
	}
	for _, in := range []string{"", "hello world", "<graphml/>"} {
		if _, err := Detect([]byte(in)); err == nil {
			t.Errorf("Detect(%q) accepted", in)
		}
	}
}

// TestParseJSONRoundTrip feeds the canonical encoding of a native workload
// through the JSON ingest path.
func TestParseJSONRoundTrip(t *testing.T) {
	want := taskgraph.MPEG2()
	data, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseBytes(FormatJSON, data)
	if err != nil {
		t.Fatalf("ParseBytes(json): %v", err)
	}
	if g.N() != want.N() || len(g.Edges()) != len(want.Edges()) {
		t.Fatalf("got %d tasks/%d edges, want %d/%d", g.N(), len(g.Edges()), want.N(), len(want.Edges()))
	}
}

// errorCase pairs an invalid document with a fragment its error must name,
// so the rejection is actionable rather than a bare "invalid input".
type errorCase struct {
	format Format
	doc    string
	want   string
}

func TestRejectionsAreActionable(t *testing.T) {
	cases := map[string]errorCase{
		"json cyclic": {FormatJSON, `{"name":"c","registers":[],
			"tasks":[{"name":"a","cycles":1,"registers":[]},{"name":"b","cycles":1,"registers":[]}],
			"edges":[{"from":0,"to":1,"cycles":0},{"from":1,"to":0,"cycles":0}]}`, "cycle"},
		"json disconnected": {FormatJSON, `{"name":"d","registers":[],
			"tasks":[{"name":"a","cycles":1,"registers":[]},{"name":"b","cycles":1,"registers":[]}],
			"edges":[]}`, "not weakly connected"},
		"json duplicate task name": {FormatJSON, `{"name":"dup","registers":[],
			"tasks":[{"name":"a","cycles":1,"registers":[]},{"name":"a","cycles":2,"registers":[]}],
			"edges":[{"from":0,"to":1,"cycles":0}]}`, "duplicate task name"},
		"json duplicate register": {FormatJSON, `{"name":"dup","registers":[{"id":"x","bits":8},{"id":"x","bits":16}],
			"tasks":[{"name":"a","cycles":1,"registers":["x"]}],"edges":[]}`, "duplicate register"},

		"tgff cyclic": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 0
			TASK b TYPE 0
			ARC e0 FROM a TO b TYPE 0
			ARC e1 FROM b TO a TYPE 0
		}`, "cycle"},
		"tgff disconnected": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 0
			TASK b TYPE 0
		}`, "not weakly connected"},
		"tgff duplicate task": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 0
			TASK a TYPE 1
		}`, `duplicate TASK name "a"`},
		"tgff duplicate arc": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 0
			TASK b TYPE 0
			ARC e0 FROM a TO b TYPE 0
			ARC e1 FROM a TO b TYPE 0
		}`, "duplicates ARC"},
		"tgff dangling arc": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 0
			ARC e0 FROM a TO ghost TYPE 0
		}`, `undefined task "ghost"`},
		"tgff missing table entry": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 3
		}
		@WCET 0 {
			0 1000
		}`, "no entry for TYPE 3"},
		"tgff two graphs": {FormatTGFF, `@TASK_GRAPH 0 {
			TASK a TYPE 0
		}
		@TASK_GRAPH 1 {
			TASK b TYPE 0
		}`, "more than one"},

		"dot cyclic": {FormatDOT, `digraph c {
			a -> b;
			b -> a;
		}`, "cycle"},
		"dot disconnected": {FormatDOT, `digraph d {
			a -> b;
			c -> e;
		}`, "not weakly connected"},
		"dot duplicate node": {FormatDOT, `digraph d {
			a [cycles=10];
			a [cycles=20];
			a -> b;
		}`, "duplicate node statement"},
		"dot duplicate edge": {FormatDOT, `digraph d {
			a -> b;
			a -> b;
		}`, "duplicate edge"},
		"dot undirected":        {FormatDOT, `graph g { a -- b; }`, "'->'"},
		"dot undirected header": {FormatDOT, `graph g { a; }`, "digraph"},
		"dot subgraph":          {FormatDOT, `digraph g { subgraph s { a -> b; } }`, "subgraph"},
		"dot self edge":         {FormatDOT, `digraph g { a -> a; }`, "self edge"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ParseBytes(tc.format, []byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted invalid %s input", tc.format)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the problem (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestValidateGraphAcceptsNativeWorkloads guards against the ingestion
// contract rejecting the graphs the engine itself generates. The §V random
// generator occasionally leaves a task with no dependents and no dependents
// of its own (so some seeds are legitimately disconnected and stay
// engine-only workloads); the pinned seeds below are weakly connected.
func TestValidateGraphAcceptsNativeWorkloads(t *testing.T) {
	graphs := []*taskgraph.Graph{taskgraph.MPEG2(), taskgraph.Fig8()}
	for _, seed := range []int64{1, 2, 3, 4, 6, 7, 8, 9} {
		graphs = append(graphs, taskgraph.MustRandom(taskgraph.DefaultRandomConfig(40), seed))
	}
	for _, g := range graphs {
		if err := ValidateGraph(g); err != nil {
			t.Errorf("ValidateGraph(%s): %v", g.Name(), err)
		}
	}
}

// TestDecodeStrict: one JSON document, optionally followed by whitespace,
// decodes; unknown fields and any trailing value or byte are refused.
func TestDecodeStrict(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, in := range []string{`{"a":1}`, "{\"a\":1}\n", " {\"a\":1} \t\r\n "} {
		var d doc
		if err := DecodeStrict([]byte(in), &d); err != nil || d.A != 1 {
			t.Errorf("DecodeStrict(%q) = %+v, %v; want {A:1}", in, d, err)
		}
	}
	for _, in := range []string{`{"a":1}garbage`, `{"a":1}{"a":2}`, `{"a":1}}`, `{"a":1} 7`, `{"b":1}`, ``} {
		var d doc
		if err := DecodeStrict([]byte(in), &d); err == nil {
			t.Errorf("DecodeStrict(%q) accepted", in)
		}
	}
}
