package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// roundTripGraphs are the workloads of the paper's evaluation: the profiled
// MPEG-2 decoder, the Fig. 8 worked example, and a spread of §V random
// graphs.
func roundTripGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	graphs := map[string]*Graph{
		"mpeg2": MPEG2(),
		"fig8":  Fig8(),
	}
	for _, n := range []int{8, 20, 60} {
		for seed := int64(1); seed <= 4; seed++ {
			g, err := Random(DefaultRandomConfig(n), seed)
			if err != nil {
				t.Fatalf("Random(%d, %d): %v", n, seed, err)
			}
			graphs[fmt.Sprintf("random-%d-%d", n, seed)] = g
		}
	}
	return graphs
}

// TestJSONRoundTripByteIdentical is the export-format contract: for every
// evaluation workload, MarshalJSON → FromJSON → MarshalJSON reproduces the
// exact bytes, and a second decode generation stays stable too. The service
// cache keys on these bytes, so any drift here silently splits cache
// identities.
func TestJSONRoundTripByteIdentical(t *testing.T) {
	for name, g := range roundTripGraphs(t) {
		t.Run(name, func(t *testing.T) {
			j1, err := g.MarshalJSON()
			if err != nil {
				t.Fatalf("MarshalJSON: %v", err)
			}
			g2, err := FromJSON(j1)
			if err != nil {
				t.Fatalf("FromJSON: %v", err)
			}
			j2, err := g2.MarshalJSON()
			if err != nil {
				t.Fatalf("re-MarshalJSON: %v", err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("round trip not byte-identical:\n first: %s\nsecond: %s", j1, j2)
			}
			g3, err := FromJSON(j2)
			if err != nil {
				t.Fatalf("second FromJSON: %v", err)
			}
			j3, err := g3.MarshalJSON()
			if err != nil {
				t.Fatalf("third MarshalJSON: %v", err)
			}
			if !bytes.Equal(j2, j3) {
				t.Fatalf("second generation drifted")
			}

			// Semantic spot checks besides the byte identity.
			if g2.N() != g.N() || len(g2.Edges()) != len(g.Edges()) {
				t.Fatalf("reconstructed shape %d tasks/%d edges, want %d/%d",
					g2.N(), len(g2.Edges()), g.N(), len(g.Edges()))
			}
			if got, want := g2.Inventory().TotalBits(), g.Inventory().TotalBits(); got != want {
				t.Fatalf("reconstructed inventory %d bits, want %d", got, want)
			}
			if got, want := g2.CriticalPathCycles(), g.CriticalPathCycles(); got != want {
				t.Fatalf("reconstructed critical path %d cycles, want %d", got, want)
			}
		})
	}
}

// TestMarshalJSONOrderInvariant: two documents describing the same DAG with
// registers and edges declared in different orders encode identically, so
// they share a ProblemKey downstream.
func TestMarshalJSONOrderInvariant(t *testing.T) {
	const docA = `{"name":"g","registers":[{"id":"rx","bits":8},{"id":"ra","bits":16}],
		"tasks":[{"name":"a","cycles":5,"registers":["rx","ra"]},
		         {"name":"b","cycles":5,"registers":[]},
		         {"name":"c","cycles":5,"registers":[]}],
		"edges":[{"from":0,"to":2,"cycles":3},{"from":0,"to":1,"cycles":2},{"from":1,"to":2,"cycles":1}]}`
	const docB = `{"name":"g","registers":[{"id":"ra","bits":16},{"id":"rx","bits":8}],
		"tasks":[{"name":"a","cycles":5,"registers":["ra","rx"]},
		         {"name":"b","cycles":5,"registers":[]},
		         {"name":"c","cycles":5,"registers":[]}],
		"edges":[{"from":1,"to":2,"cycles":1},{"from":0,"to":1,"cycles":2},{"from":0,"to":2,"cycles":3}]}`
	ga, err := FromJSON([]byte(docA))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := FromJSON([]byte(docB))
	if err != nil {
		t.Fatal(err)
	}
	ja, err := ga.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := gb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("declaration order leaked into the canonical encoding:\n%s\nvs\n%s", ja, jb)
	}
}

func TestGraphUnmarshalJSONPointer(t *testing.T) {
	j, err := MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var g Graph
	if err := json.Unmarshal(j, &g); err != nil {
		t.Fatalf("json.Unmarshal(*Graph): %v", err)
	}
	if g.N() != MPEG2().N() {
		t.Fatalf("unmarshaled %d tasks, want %d", g.N(), MPEG2().N())
	}
	j2, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, j2) {
		t.Fatal("UnmarshalJSON round trip not byte-identical")
	}
}

func TestFromJSONRejects(t *testing.T) {
	cases := map[string]string{
		"cycle": `{"name":"c","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]},
			{"name":"b","cycles":1,"registers":[]}],
			"edges":[{"from":0,"to":1,"cycles":0},{"from":1,"to":0,"cycles":0}]}`,
		"dangling edge": `{"name":"d","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],
			"edges":[{"from":0,"to":7,"cycles":0}]}`,
		"negative edge index": `{"name":"d","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],
			"edges":[{"from":-1,"to":0,"cycles":0}]}`,
		"duplicate register": `{"name":"r","registers":[{"id":"x","bits":8},{"id":"x","bits":8}],
			"tasks":[{"name":"a","cycles":1,"registers":["x"]}],"edges":[]}`,
		"unknown register": `{"name":"r","registers":[],
			"tasks":[{"name":"a","cycles":1,"registers":["ghost"]}],"edges":[]}`,
		"non-positive cost": `{"name":"r","registers":[],
			"tasks":[{"name":"a","cycles":0,"registers":[]}],"edges":[]}`,
		"not json": `digraph g { a -> b; }`,
	}
	for name, doc := range cases {
		if _, err := FromJSON([]byte(doc)); err == nil {
			t.Errorf("%s: FromJSON accepted invalid input", name)
		}
	}
}

// BenchmarkFromJSON decodes the canonical document of a 120-task §V graph,
// the size of the service_hot workload's graphs.
func BenchmarkFromJSON(b *testing.B) {
	doc, err := MustRandom(DefaultRandomConfig(120), 1).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for range b.N {
		if _, err := FromJSON(doc); err != nil {
			b.Fatal(err)
		}
	}
}
