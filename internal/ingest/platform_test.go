package ingest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/taskgraph"
)

// heteroSpec is a well-formed mixed spec used across the tests: two Table-I
// ARM7 cores, one 2-level core and one explicit-level 4-level core.
const heteroSpec = `{
  "name": "mixed4",
  "types": [
    {"name": "arm7x3", "freqs_mhz": [200, 100, 66.667]},
    {"name": "arm7x2", "freqs_mhz": [200, 100]},
    {"name": "fast4", "levels": [
      {"freq_mhz": 236, "vdd": 1.2},
      {"freq_mhz": 200, "vdd": 1.0},
      {"freq_mhz": 100, "vdd": 0.58},
      {"freq_mhz": 66.667, "vdd": 0.44}
    ]}
  ],
  "cores": [
    {"type": "arm7x3", "count": 2},
    {"type": "arm7x2"},
    {"type": "fast4"}
  ]
}`

func TestParsePlatformSpec(t *testing.T) {
	p, err := ParsePlatformSpec([]byte(heteroSpec))
	if err != nil {
		t.Fatalf("ParsePlatformSpec: %v", err)
	}
	if p.Cores() != 4 || p.Homogeneous() {
		t.Fatalf("Cores=%d Homogeneous=%v", p.Cores(), p.Homogeneous())
	}
	if got := p.LevelCounts(); got[0] != 3 || got[1] != 3 || got[2] != 2 || got[3] != 4 {
		t.Errorf("LevelCounts = %v", got)
	}
	if p.TypeName(0) != "arm7x3" || p.TypeName(3) != "fast4" {
		t.Errorf("type names: %s, %s", p.TypeName(0), p.TypeName(3))
	}
	if f := p.MustCoreLevel(3, 1).FreqMHz; f != 236 {
		t.Errorf("core 3 s=1 = %v MHz, want 236", f)
	}
	// Calibration defaults hold when the spec is silent.
	if p.CL() != arch.DefaultCL || p.BaselineBits() != arch.DefaultBaselineBits {
		t.Errorf("CL=%v BaselineBits=%d, want defaults", p.CL(), p.BaselineBits())
	}
}

func TestParsePlatformSpecOverrides(t *testing.T) {
	spec := `{
	  "types": [{"name": "arm7", "freqs_mhz": [200, 100]}],
	  "cores": [{"type": "arm7", "count": 2}],
	  "cl": 10e-12,
	  "baseline_bits": 0
	}`
	p, err := ParsePlatformSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if p.CL() != 10e-12 {
		t.Errorf("CL = %v, want 10e-12", p.CL())
	}
	if p.BaselineBits() != 0 {
		t.Errorf("BaselineBits = %d, want explicit 0", p.BaselineBits())
	}
}

// TestPlatformSpecErrors: every rejected spec must say what is wrong and
// name the offending element.
func TestPlatformSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []string // substrings of the error, all required
	}{
		{
			name: "no types",
			spec: `{"cores": [{"type": "arm7"}]}`,
			want: []string{"no processor types"},
		},
		{
			name: "unnamed type",
			spec: `{"types": [{"freqs_mhz": [200]}], "cores": [{"type": ""}]}`,
			want: []string{"type 0", "no name"},
		},
		{
			name: "duplicate type names",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}, {"name": "a", "freqs_mhz": [100]}],
			        "cores": [{"type": "a"}]}`,
			want: []string{"duplicate processor type", `"a"`, "unique"},
		},
		{
			name: "empty level table",
			spec: `{"types": [{"name": "a"}], "cores": [{"type": "a"}]}`,
			want: []string{`type "a"`, "empty DVS level table"},
		},
		{
			name: "both levels and freqs",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200], "levels": [{"freq_mhz": 200, "vdd": 1}]}],
			        "cores": [{"type": "a"}]}`,
			want: []string{`type "a"`, "not both"},
		},
		{
			name: "non-monotone frequencies",
			spec: `{"types": [{"name": "a", "freqs_mhz": [100, 200]}], "cores": [{"type": "a"}]}`,
			want: []string{`type "a"`, "strictly decreasing"},
		},
		{
			name: "non-monotone explicit levels",
			spec: `{"types": [{"name": "a", "levels": [
			          {"freq_mhz": 100, "vdd": 0.58}, {"freq_mhz": 200, "vdd": 1.0}]}],
			        "cores": [{"type": "a"}]}`,
			want: []string{`type "a"`, "fastest-first"},
		},
		{
			name: "non-positive level",
			spec: `{"types": [{"name": "a", "levels": [{"freq_mhz": 200, "vdd": 0}]}],
			        "cores": [{"type": "a"}]}`,
			want: []string{`type "a"`, "non-positive"},
		},
		{
			name: "no cores list",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}]}`,
			want: []string{"no cores"},
		},
		{
			name: "zero cores instantiated",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "a", "count": 0}]}`,
			want: []string{"zero cores"},
		},
		{
			name: "negative count",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "a", "count": -2}]}`,
			want: []string{"entry 0", "zero cores"},
		},
		{
			name: "unknown type ref",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "b"}]}`,
			want: []string{"entry 0", `unknown processor type "b"`, "declared: a"},
		},
		{
			name: "unknown field",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "a"}], "levels": 3}`,
			want: []string{"decoding platform spec"},
		},
		{
			name: "not json",
			spec: `cores: 4`,
			want: []string{"decoding platform spec"},
		},
		{
			name: "trailing data",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "a"}]} {"cores": []}`,
			want: []string{"decoding platform spec", "after the JSON document"},
		},
		{
			name: "negative cl",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "a"}], "cl": -1}`,
			want: []string{"C_L"},
		},
		{
			name: "negative baseline bits",
			spec: `{"types": [{"name": "a", "freqs_mhz": [200]}], "cores": [{"type": "a"}], "baseline_bits": -5}`,
			want: []string{"baseline bits"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParsePlatformSpec([]byte(c.spec))
			if err == nil {
				t.Fatalf("spec accepted:\n%s", c.spec)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// oversizedSpecs are short specs describing platforms far larger than
// their bytes: four million cores, and four cores on a billion-column mesh
// (four billion links).
var oversizedSpecs = []string{
	`{"name":"wide","types":[{"name":"arm7","freqs_mhz":[200,100,66.67]}],"cores":[{"type":"arm7","count":4194304}]}`,
	`{"types":[{"name":"arm7","freqs_mhz":[200,100,66.67]}],"cores":[{"type":"arm7","count":4}],
	  "interconnect":{"topology":"mesh","bandwidth_bits_per_sec":4e9,"hop_latency_sec":1e-4,"mesh_width":1000000000}}`,
}

// TestPlatformSpecSizeLimits: a spec past arch.MaxCores cores, in one entry
// or summed over several (overflowing int included), or with a mesh wider
// than its core count, is refused before its core list is built.
func TestPlatformSpecSizeLimits(t *testing.T) {
	specs := append([]string{
		`{"types":[{"name":"a","freqs_mhz":[200]}],"cores":[{"type":"a","count":600},{"type":"a","count":600}]}`,
		`{"types":[{"name":"a","freqs_mhz":[200]}],"cores":[{"type":"a","count":9223372036854775807},{"type":"a","count":9223372036854775807}]}`,
	}, oversizedSpecs...)
	for _, spec := range specs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ParsePlatformSpec([]byte(spec))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("accepted a %d-core platform:\n%s", p.Cores(), spec)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("refusing the spec allocated %d bytes:\n%s", grew, spec)
		}
	}
	max := fmt.Sprintf(`{"types":[{"name":"a","freqs_mhz":[200]}],"cores":[{"type":"a","count":%d},{"type":"a"}]}`, arch.MaxCores-1)
	if p, err := ParsePlatformSpec([]byte(max)); err != nil || p.Cores() != arch.MaxCores {
		t.Errorf("a %d-core spec: %v", arch.MaxCores, err)
	}
}

func TestReadPlatformSpec(t *testing.T) {
	p, err := ReadPlatformSpec(strings.NewReader(heteroSpec))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores() != 4 {
		t.Errorf("Cores = %d", p.Cores())
	}
}

// TestPlatformSpecProblemKeys: spec-built platforms participate in problem
// identity — a homogeneous spec hashes identically to the equivalent
// NewPlatform platform (names and duplicate declarations canonicalized
// away), and physically different platforms hash apart.
func TestPlatformSpecProblemKeys(t *testing.T) {
	g := taskgraph.MPEG2()
	key := func(p *arch.Platform) string {
		k, err := (&Problem{Graph: g, Platform: p, Options: Options{}}).Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	direct, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParsePlatformSpec([]byte(`{
	  "types": [{"name": "anything", "freqs_mhz": [200, 100, 66.66666666666667]}],
	  "cores": [{"type": "anything", "count": 4}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if key(direct) != key(spec) {
		t.Error("homogeneous spec and NewPlatform platform hash apart (names should not participate)")
	}

	// Duplicate type declarations with identical tables collapse.
	dup, err := ParsePlatformSpec([]byte(`{
	  "types": [{"name": "a", "freqs_mhz": [200, 100, 66.66666666666667]},
	            {"name": "b", "freqs_mhz": [200, 100, 66.66666666666667]}],
	  "cores": [{"type": "a", "count": 2}, {"type": "b", "count": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if key(direct) != key(dup) {
		t.Error("duplicate identical type declarations changed the key")
	}

	hetero, err := ParsePlatformSpec([]byte(heteroSpec))
	if err != nil {
		t.Fatal(err)
	}
	if key(direct) == key(hetero) {
		t.Error("heterogeneous platform hashes like the homogeneous one")
	}
	// The canonical encoding records the v4 format.
	enc, err := (&Problem{Graph: g, Platform: hetero, Options: Options{}}).CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"v":4`) || !strings.Contains(string(enc), `"core_types"`) {
		t.Errorf("canonical encoding missing v4 platform form: %s", enc[:120])
	}
}
