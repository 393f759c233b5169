package ingest

import (
	"fmt"
	"io"
	"strings"

	"seadopt/internal/arch"
)

// PlatformSpec is the JSON description of an MPSoC platform: a set of named
// processor types (each with its own DVS level table) and a core list
// instantiating them. It is how heterogeneous platforms enter the system —
// the CLI -platform flag and the service's "platform" job field both carry
// one.
//
// A minimal homogeneous spec:
//
//	{
//	  "types": [{"name": "arm7", "freqs_mhz": [200, 100, 66.67]}],
//	  "cores": [{"type": "arm7", "count": 4}]
//	}
//
// A type's table is given either as explicit levels ({"freq_mhz", "vdd"}
// pairs, fastest first) or as "freqs_mhz", deriving voltages with the ARM7
// law of eq. (2). cl and baseline_bits override the power/exposure
// calibration constants; both default to the paper's values.
//
// An optional "interconnect" block declares the communication fabric —
// without one the platform uses the paper's ideal fabric (every edge billed
// at the slower endpoint's clock, no contention):
//
//	{
//	  "types": [{"name": "arm7", "freqs_mhz": [200, 100, 66.67]}],
//	  "cores": [{"type": "arm7", "count": 4}],
//	  "interconnect": {
//	    "topology": "mesh",
//	    "bandwidth_bits_per_sec": 4e9,
//	    "hop_latency_sec": 1e-4
//	  }
//	}
type PlatformSpec struct {
	// Name labels the platform in logs and summaries; it does not
	// participate in problem identity.
	Name string `json:"name,omitempty"`
	// Types declares the processor types cores can reference.
	Types []ProcTypeSpec `json:"types"`
	// Cores instantiates types, in core-index order.
	Cores []CoreSpec `json:"cores"`
	// CL overrides the effective switched capacitance of eq. (5) in farads;
	// 0 selects arch.DefaultCL.
	CL float64 `json:"cl,omitempty"`
	// BaselineBits overrides the per-core baseline SEU-exposed storage;
	// nil selects arch.DefaultBaselineBits.
	BaselineBits *int64 `json:"baseline_bits,omitempty"`
	// Interconnect declares the contended communication fabric; nil selects
	// the ideal fabric.
	Interconnect *InterconnectSpec `json:"interconnect,omitempty"`
}

// InterconnectSpec is the JSON form of arch.Interconnect: a "bus" (one
// shared link) or 2D "mesh" (XY-routed NoC) with finite link bandwidth and
// per-hop latency. Concurrent transfers sharing a link serialize.
type InterconnectSpec struct {
	// Topology is "bus" or "mesh".
	Topology string `json:"topology"`
	// BandwidthBitsPerSec is the link bandwidth; a message of B bits holds
	// each link of its path for B/bandwidth seconds. Required, positive.
	BandwidthBitsPerSec float64 `json:"bandwidth_bits_per_sec"`
	// HopLatencySec is the per-hop routing latency in seconds.
	HopLatencySec float64 `json:"hop_latency_sec,omitempty"`
	// BitsPerCycle converts an edge's communication cycles to message bits;
	// 0 selects arch.DefaultBitsPerCycle (32).
	BitsPerCycle float64 `json:"bits_per_cycle,omitempty"`
	// MeshWidth is the mesh's column count; 0 selects ceil(sqrt(cores)).
	// Must be absent for a bus.
	MeshWidth int `json:"mesh_width,omitempty"`
}

// ProcTypeSpec declares one processor type. Exactly one of Levels and
// FreqsMHz must be given.
type ProcTypeSpec struct {
	// Name is the identifier core entries reference. Required, unique.
	Name string `json:"name"`
	// Levels is the explicit DVS table, fastest first.
	Levels []LevelSpec `json:"levels,omitempty"`
	// FreqsMHz derives the table from operating frequencies (MHz, fastest
	// first) with the ARM7 voltage law of eq. (2).
	FreqsMHz []float64 `json:"freqs_mhz,omitempty"`
}

// LevelSpec is one explicit DVS operating point.
type LevelSpec struct {
	FreqMHz float64 `json:"freq_mhz"`
	Vdd     float64 `json:"vdd"`
}

// CoreSpec instantiates count cores of a declared type.
type CoreSpec struct {
	// Type references a declared processor type by name.
	Type string `json:"type"`
	// Count is the number of cores of this type; absent means 1. An
	// explicit zero or negative count is an error — a spec that
	// instantiates no cores is a mistake, not a platform.
	Count *int `json:"count,omitempty"`
}

// count resolves the entry's core count (absent means 1).
func (cs CoreSpec) count() int {
	if cs.Count == nil {
		return 1
	}
	return *cs.Count
}

// ParsePlatformSpec decodes and validates a JSON platform spec, returning
// the built platform. Errors name the offending element so a spec author
// can fix the document without reading this source.
func ParsePlatformSpec(data []byte) (*arch.Platform, error) {
	var spec PlatformSpec
	if err := DecodeStrict(data, &spec); err != nil {
		return nil, fmt.Errorf("ingest: decoding platform spec: %w", err)
	}
	return spec.Build()
}

// ReadPlatformSpec is ParsePlatformSpec over a reader (a spec file).
func ReadPlatformSpec(r io.Reader) (*arch.Platform, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading platform spec: %w", err)
	}
	return ParsePlatformSpec(data)
}

// Build validates the spec and constructs the platform.
func (spec *PlatformSpec) Build() (*arch.Platform, error) {
	if len(spec.Types) == 0 {
		return nil, fmt.Errorf("ingest: platform spec declares no processor types; add a \"types\" list")
	}
	types := make([]arch.ProcType, len(spec.Types))
	index := make(map[string]int, len(spec.Types))
	var names []string
	for i, ts := range spec.Types {
		if ts.Name == "" {
			return nil, fmt.Errorf("ingest: platform spec: processor type %d has no name", i)
		}
		if _, dup := index[ts.Name]; dup {
			return nil, fmt.Errorf("ingest: platform spec: duplicate processor type %q; type names must be unique", ts.Name)
		}
		levels, err := ts.levels()
		if err != nil {
			return nil, fmt.Errorf("ingest: platform spec: processor type %q: %w", ts.Name, err)
		}
		types[i] = arch.ProcType{Name: ts.Name, Levels: levels}
		if err := types[i].Validate(); err != nil {
			return nil, fmt.Errorf("ingest: platform spec: processor type %q: %w", ts.Name, err)
		}
		index[ts.Name] = i
		names = append(names, ts.Name)
	}
	if len(spec.Cores) == 0 {
		return nil, fmt.Errorf("ingest: platform spec declares no cores; add a \"cores\" list referencing the declared types")
	}
	// Resolve and sum the counts before expanding them, so an oversized
	// spec is refused without building its core list.
	total := 0
	for i, cs := range spec.Cores {
		if _, ok := index[cs.Type]; !ok {
			return nil, fmt.Errorf("ingest: platform spec: cores entry %d references unknown processor type %q (declared: %s)",
				i, cs.Type, strings.Join(names, ", "))
		}
		count := cs.count()
		if count < 1 {
			return nil, fmt.Errorf("ingest: platform spec: cores entry %d instantiates zero cores (count %d); counts must be ≥ 1", i, count)
		}
		if count > arch.MaxCores-total {
			return nil, fmt.Errorf("ingest: platform spec: cores entry %d brings the core count past the limit of %d", i, arch.MaxCores)
		}
		total += count
	}
	coreTypes := make([]int, 0, total)
	for _, cs := range spec.Cores {
		for c := 0; c < cs.count(); c++ {
			coreTypes = append(coreTypes, index[cs.Type])
		}
	}
	var opts []arch.Option
	if spec.CL != 0 {
		opts = append(opts, arch.WithCL(spec.CL))
	}
	if spec.BaselineBits != nil {
		opts = append(opts, arch.WithBaselineBits(*spec.BaselineBits))
	}
	if ic := spec.Interconnect; ic != nil {
		opts = append(opts, arch.WithInterconnect(arch.Interconnect{
			Topology:      arch.Topology(ic.Topology),
			BandwidthBps:  ic.BandwidthBitsPerSec,
			HopLatencySec: ic.HopLatencySec,
			BitsPerCycle:  ic.BitsPerCycle,
			MeshWidth:     ic.MeshWidth,
		}))
	}
	p, err := arch.NewHeterogeneousPlatform(types, coreTypes, opts...)
	if err != nil {
		return nil, fmt.Errorf("ingest: platform spec: %w", err)
	}
	return p, nil
}

// levels resolves a type's DVS table from whichever encoding the spec used.
func (ts ProcTypeSpec) levels() ([]arch.Level, error) {
	switch {
	case len(ts.Levels) > 0 && len(ts.FreqsMHz) > 0:
		return nil, fmt.Errorf("give either \"levels\" or \"freqs_mhz\", not both")
	case len(ts.FreqsMHz) > 0:
		levels, err := arch.LevelsFromFrequencies(ts.FreqsMHz...)
		if err != nil {
			return nil, err
		}
		return levels, nil
	case len(ts.Levels) > 0:
		out := make([]arch.Level, len(ts.Levels))
		for i, l := range ts.Levels {
			out[i] = arch.Level{S: i + 1, FreqMHz: l.FreqMHz, Vdd: l.Vdd}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("empty DVS level table: give \"levels\" or \"freqs_mhz\"")
	}
}
