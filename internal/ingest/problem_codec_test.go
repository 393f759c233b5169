package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// TestDecodeProblemRoundTrip pins the distributed wire contract: decoding a
// canonical encoding yields a problem with the same Key and the same bytes,
// across option corners (defaults, true-zero SER, pareto mode, sweeps,
// heterogeneous platforms).
func TestDecodeProblemRoundTrip(t *testing.T) {
	het, err := arch.NewHeterogeneousPlatform([]arch.ProcType{
		{Name: "big", Levels: arch.ARM7Levels3()},
		{Name: "little", Levels: arch.ARM7Levels2()},
	}, []int{0, 0, 1}, arch.WithCL(1.1e-9))
	if err != nil {
		t.Fatal(err)
	}
	sweep := testProblem(t)
	sweep.Options.Mode = ModeSweep
	sweep.Options.DeadlineSec = 0
	sweep.Options.SweepDeadlines = []float64{0.2, 0.3}
	sweep.Options.SweepPointMode = "pareto"
	sweep.Options.SweepObjectiveSets = []string{"power,gamma"}
	sweep.SweepPlatforms = []*arch.Platform{het}

	zeroSER := testProblem(t)
	zeroSER.Options.SER = -5 // any negative = no soft errors

	pareto := testProblem(t)
	pareto.Options.Mode = ModePareto
	pareto.Options.Objectives = "gamma,power"
	pareto.Options.Strategy = "exhaustive"

	hetProb := &Problem{Graph: taskgraph.Fig8(), Platform: het,
		Options: Options{DeadlineSec: taskgraph.Fig8Deadline, Seed: 7}}

	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"defaults", testProblem(t)},
		{"zeroSER", zeroSER},
		{"pareto", pareto},
		{"heterogeneous", hetProb},
		{"sweep", sweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := tc.p.CanonicalEncoding()
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeProblem(enc)
			if err != nil {
				t.Fatal(err)
			}
			re, err := got.CanonicalEncoding()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, enc) {
				t.Fatalf("re-encode diverged:\n in: %s\nout: %s", enc, re)
			}
			wantKey, _ := tc.p.Key()
			gotKey, err := got.Key()
			if err != nil {
				t.Fatal(err)
			}
			if gotKey != wantKey {
				t.Fatalf("key diverged: %s vs %s", gotKey, wantKey)
			}
		})
	}
}

func TestDecodeProblemRejects(t *testing.T) {
	if _, err := DecodeProblem([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := DecodeProblem([]byte(`{"v":3}`)); err == nil {
		t.Fatal("stale version accepted")
	}
}

// rawMessageKeys is how CanonicalEncoding and Fingerprint were built before
// they spliced the graph: json.Marshal of the same envelopes with the graph
// as a json.RawMessage, which encoding/json validates, compacts and
// HTML-escapes.
func rawMessageKeys(t *testing.T, p *Problem) (enc []byte, fp string) {
	t.Helper()
	gj, err := p.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cp := canonicalProblem{
		V:        p.keyVersion(),
		Graph:    gj,
		Platform: canonicalizePlatform(p.Platform),
		Options:  p.Options.normalize(),
	}
	for _, sp := range p.SweepPlatforms {
		cp.SweepPlatforms = append(cp.SweepPlatforms, canonicalizePlatform(sp))
	}
	if enc, err = json.Marshal(cp); err != nil {
		t.Fatal(err)
	}
	fenc, err := json.Marshal(canonicalFingerprint{
		V:        fingerprintVersion,
		Graph:    gj,
		Platform: canonicalizePlatform(p.Platform),
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fenc)
	return enc, "fp-sha256:" + hex.EncodeToString(sum[:])
}

// TestCanonicalEncodingMatchesRawMessage: splicing the graph document into
// the envelopes yields the bytes, keys and fingerprints of the RawMessage
// construction, on v4 and v5 (mesh and bus) problems, a sweep crossing
// extra platforms, a Pareto problem, and a graph whose names need
// escaping.
func TestCanonicalEncodingMatchesRawMessage(t *testing.T) {
	spec := func(s string) *arch.Platform {
		t.Helper()
		p, err := ParsePlatformSpec([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mesh := spec(nocSpec)
	bus := spec(`{"types":[{"name":"arm7","freqs_mhz":[200,100,66.67]}],"cores":[{"type":"arm7","count":4}],
	  "interconnect":{"topology":"bus","bandwidth_bits_per_sec":4e9,"hop_latency_sec":1e-4}}`)
	het := spec(heteroSpec)

	v5mesh := testProblem(t)
	v5mesh.Platform = mesh
	v5bus := testProblem(t)
	v5bus.Platform = bus

	sweep := testProblem(t)
	sweep.Options.Mode = ModeSweep
	sweep.Options.DeadlineSec = 0
	sweep.Options.SweepDeadlines = []float64{0.2, 0.3}
	sweep.SweepPlatforms = []*arch.Platform{het, bus}

	pareto := testProblem(t)
	pareto.Options.Mode = ModePareto
	pareto.Options.Objectives = "gamma,power"

	// One escape kind per string, so no escape hides behind another.
	inv := registers.NewInventory()
	inv.MustAdd("buf<1", 64)
	inv.MustAdd(`"quoted"`, 32)
	inv.MustAdd("sep\u2028", 16)
	b := taskgraph.NewBuilder("esc<", inv)
	b.AddTask("a&b", 100, "buf<1")
	b.AddTask("c>d", 200, `"quoted"`, "buf<1")
	b.AddTask("é\x01", 300, "sep\u2028")
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 7)
	escaped := testProblem(t)
	escaped.Graph = b.MustBuild()

	for _, tc := range []struct {
		name string
		p    *Problem
	}{
		{"v4", testProblem(t)},
		{"v5-mesh", v5mesh},
		{"v5-bus", v5bus},
		{"sweep", sweep},
		{"pareto", pareto},
		{"escaped-graph", escaped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantEnc, wantFP := rawMessageKeys(t, tc.p)
			enc, err := tc.p.CanonicalEncoding()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, wantEnc) {
				t.Fatalf("canonical encoding differs from the RawMessage construction:\n got %s\nwant %s", enc, wantEnc)
			}
			fp, err := tc.p.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp != wantFP {
				t.Fatalf("fingerprint %s, RawMessage construction %s", fp, wantFP)
			}
		})
	}
}
