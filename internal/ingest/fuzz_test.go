package ingest

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// The ingest fuzz targets assert the parser contract on arbitrary input:
// never panic, and either fail with an error or return a graph that passes
// the same structural validation every accepted submission passes — so a
// fuzz-found parser bug is a crash or a validation violation, not a silent
// bad graph reaching the engine. CI runs each target briefly
// (-fuzztime a few seconds) as a smoke screen; run them longer locally with
//
//	go test -fuzz FuzzParseTGFF -fuzztime 5m ./internal/ingest
//
// (one target per -fuzz invocation).

// checkParsed validates a graph the parser accepted.
func checkParsed(t *testing.T, g *taskgraph.Graph) {
	t.Helper()
	if g == nil {
		t.Fatal("parser returned nil graph with nil error")
	}
	if err := ValidateGraph(g); err != nil {
		t.Fatalf("parser accepted a graph its own validator rejects: %v", err)
	}
	// The canonical encoding must round-trip whatever we accepted.
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatalf("accepted graph does not marshal: %v", err)
	}
	if _, err := ParseBytes(FormatJSON, data); err != nil {
		t.Fatalf("accepted graph's canonical encoding does not re-parse: %v", err)
	}
}

func FuzzParseTGFF(f *testing.F) {
	f.Add(sampleTGFF)
	f.Add("@TASK_GRAPH 0 {\n\tTASK a TYPE 0\n\tTASK b TYPE 1\n\tARC x FROM a TO b TYPE 0\n}\n")
	f.Add("@WCET 0 {\n\t0 100\n}\n")
	f.Add("# comment only\n")
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := ParseBytes(FormatTGFF, []byte(doc))
		if err == nil {
			checkParsed(t, g)
		}
	})
}

func FuzzParseDOT(f *testing.F) {
	f.Add("strict digraph \"pipe line\" {\n\ta [cycles=1000, regbits=512];\n\ta -> b -> c [cycles=\"77\"];\n\tb -> d [label=\"42\"];\n\tc -> d;\n}\n")
	f.Add("digraph g { a -> b; }")
	f.Add("digraph g { a -> b [cycles=3]; b -> c; }")
	f.Add("digraph g  a -> b; }")
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := ParseBytes(FormatDOT, []byte(doc))
		if err == nil {
			checkParsed(t, g)
		}
	})
}

func FuzzParseJSON(f *testing.F) {
	mpeg2, err := taskgraph.MPEG2().MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(mpeg2))
	fig8, err := taskgraph.Fig8().MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(fig8))
	f.Add(`{"name":"x","tasks":[]}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := ParseBytes(FormatJSON, []byte(doc))
		if err == nil {
			checkParsed(t, g)
		}
	})
}

// FuzzDetect: format sniffing must never panic and must hand every sniffed
// document to a parser that upholds the same contract.
func FuzzDetect(f *testing.F) {
	f.Add(sampleTGFF)
	f.Add("digraph g { a -> b; }")
	f.Add(`{"name":"x"}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, doc string) {
		format, err := Detect([]byte(doc))
		if err != nil {
			return
		}
		g, err := ParseBytes(format, []byte(doc))
		if err == nil {
			checkParsed(t, g)
		}
	})
}

// FuzzParsePlatformSpec asserts the platform spec contract: an accepted
// spec builds a platform of 1 to arch.MaxCores cores whose every DVS level
// is valid and whose fabric, if any, routes every core pair over exactly
// Hops links, each a real link of the fabric.
func FuzzParsePlatformSpec(f *testing.F) {
	for _, fixture := range []string{"mixed.json", "noc.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "seadopt", "testdata", fixture))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(heteroSpec))
	f.Add([]byte(heteroSpec + "garbage"))
	f.Add([]byte(`{"types":[{"name":"a","freqs_mhz":[200,100]}],"cores":[{"type":"a","count":7}],
	  "interconnect":{"topology":"mesh","bandwidth_bits_per_sec":1e9,"mesh_width":3}}`))
	for _, spec := range oversizedSpecs {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlatformSpec(data)
		if err != nil {
			return
		}
		cores := p.Cores()
		if cores < 1 || cores > arch.MaxCores {
			t.Fatalf("accepted a platform of %d cores, limit %d", cores, arch.MaxCores)
		}
		for c := 0; c < cores; c++ {
			if err := (arch.ProcType{Levels: p.Levels(c)}).Validate(); err != nil {
				t.Fatalf("core %d has an invalid level table: %v", c, err)
			}
		}
		ic := p.Interconnect()
		if ic == nil {
			return
		}
		// The route table Reserve walks holds every route PathLinks
		// spells out, and its hop latency is hops·HopLatencySec bit for bit.
		links, rt := ic.NumLinks(), p.Routes()
		var path, tabled []int
		for a := 0; a < cores; a++ {
			for b := 0; b < cores; b++ {
				path = ic.PathLinks(a, b, path[:0])
				hops := ic.Hops(a, b)
				if len(path) != hops {
					t.Fatalf("route %d→%d has %d links, Hops %d", a, b, len(path), hops)
				}
				for _, l := range path {
					if l < 0 || l >= links {
						t.Fatalf("route %d→%d crosses link %d outside [0,%d)", a, b, l, links)
					}
				}
				if tabled = rt.Links(a, b, tabled[:0]); !slices.Equal(tabled, path) {
					t.Fatalf("route table %d→%d = %v, PathLinks %v", a, b, tabled, path)
				}
				if got, want := rt.HopSec(a, b), float64(hops)*ic.HopLatencySec; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("route table %d→%d hop latency %v, want %v", a, b, got, want)
				}
			}
		}
	})
}

// FuzzDecodeProblem feeds arbitrary bytes to DecodeProblem, which journal
// recovery and the shard endpoint run on bytes from outside the process:
// no input panics, and an accepted input is canonical — it re-encodes to
// itself and its Key is the input's EncodingKey.
func FuzzDecodeProblem(f *testing.F) {
	mesh, err := ParsePlatformSpec([]byte(nocSpec))
	if err != nil {
		f.Fatal(err)
	}
	het, err := ParsePlatformSpec([]byte(heteroSpec))
	if err != nil {
		f.Fatal(err)
	}
	v5 := testProblem(f)
	v5.Platform = mesh
	sweep := testProblem(f)
	sweep.Options.Mode = ModeSweep
	sweep.Options.DeadlineSec = 0
	sweep.Options.SweepDeadlines = []float64{0.2, 0.3}
	sweep.Options.SweepPointMode = ModePareto
	sweep.Options.SweepObjectiveSets = []string{"power,gamma", ""}
	sweep.SweepPlatforms = []*arch.Platform{het, mesh}
	pareto := testProblem(f)
	pareto.Options.Mode = ModePareto
	pareto.Options.Objectives = "gamma,power"
	for _, p := range []*Problem{testProblem(f), v5, sweep, pareto} {
		enc, err := p.CanonicalEncoding()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		p, err := DecodeProblem(enc)
		if err != nil {
			return
		}
		re, err := p.CanonicalEncoding()
		if err != nil {
			t.Fatalf("accepted problem does not re-encode: %v", err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("accepted problem re-encodes differently:\n in: %s\nout: %s", enc, re)
		}
		key, err := p.Key()
		if err != nil {
			t.Fatal(err)
		}
		if want := EncodingKey(enc); key != want {
			t.Fatalf("key %s, want the input's %s", key, want)
		}
	})
}
