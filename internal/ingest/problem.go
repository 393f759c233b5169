package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/mapping"
	"seadopt/internal/pareto"
	"seadopt/internal/taskgraph"
)

// The optimization modes a problem can request.
const (
	// ModeScalar is the classic single-design optimization: the
	// deadline-meeting design with minimum power, tie-broken by Γ.
	ModeScalar = "scalar"
	// ModePareto returns the ordered Pareto frontier of deadline-feasible
	// designs over the problem's objectives instead of one scalar optimum.
	ModePareto = "pareto"
	// ModeSweep evaluates a batch of problem variants — a deadline sweep,
	// optionally crossed with extra platforms and per-point objective sets
	// — over one shared reuse layer, returning per-point results.
	ModeSweep = "sweep"
)

// ParseMode resolves a user-facing mode name (CLI flag, job option); the
// empty string selects the scalar mode.
func ParseMode(name string) (string, error) {
	switch name {
	case "", ModeScalar, "single":
		return ModeScalar, nil
	case ModePareto, "frontier", "multi":
		return ModePareto, nil
	case ModeSweep, "batch":
		return ModeSweep, nil
	}
	return "", fmt.Errorf("ingest: unknown mode %q (want scalar, pareto or sweep)", name)
}

// Options are the result-affecting knobs of an optimization problem. They
// mirror the root OptimizeOptions minus the execution-only fields
// (Parallelism, Progress), which deliberately do not participate in problem
// identity: the engine's result is byte-identical at any parallelism, so two
// submissions differing only in execution settings are the same problem.
type Options struct {
	// SER follows the library convention: 0 selects the paper's default
	// rate, negative selects a true zero rate.
	SER float64 `json:"ser"`
	// DeadlineSec is the real-time constraint; 0 means unconstrained.
	DeadlineSec float64 `json:"deadline_sec"`
	// StreamIterations is the pipelined stream length (0/1 = plain DAG).
	StreamIterations int `json:"stream_iterations"`
	// SearchMoves bounds the per-scaling mapping search (0 = default).
	SearchMoves int `json:"search_moves"`
	// Seed makes runs reproducible.
	Seed int64 `json:"seed"`
	// Baseline selects a soft error-unaware mapper instead of the paper's:
	// "" (proposed), "reg", "makespan" or "regtime".
	Baseline string `json:"baseline"`
	// Strategy selects the exploration walk: "" (server default), "bnb",
	// "exhaustive" or "sampled". It participates in problem identity so
	// cached results never cross strategies — in particular an approximate
	// "sampled" result can never be served for an exact request.
	Strategy string `json:"strategy"`
	// SampleBudget bounds the "sampled" strategy's portfolio (0 = engine
	// default). Normalized away for the exact strategies, which ignore it.
	SampleBudget int `json:"sample_budget"`
	// Mode selects the optimization output: "" or "scalar" (the single
	// minimum-power design), or "pareto" (the ordered non-dominated
	// frontier). It participates in problem identity: a scalar design and a
	// frontier are different results and never share a cache entry.
	Mode string `json:"mode"`
	// Objectives is the pareto mode's comma-separated objective selection
	// ("power,makespan,gamma" subsets; "" = all three). Normalized to the
	// canonical rendering, and zeroed for the scalar mode, which ignores
	// it.
	Objectives string `json:"objectives"`
	// SweepDeadlines lists the sweep mode's deadline points, in submission
	// order (the order per-point results stream in — deliberately NOT
	// sorted or deduplicated by normalization). Required for mode=sweep,
	// forbidden otherwise. DeadlineSec is ignored (and normalized away) in
	// sweep mode. omitempty keeps pre-sweep canonical encodings
	// byte-identical, so problemKeyVersion needs no bump.
	SweepDeadlines []float64 `json:"sweep_deadlines,omitempty"`
	// SweepObjectiveSets crosses the deadline sweep with Pareto objective
	// selections (one frontier per deadline × set). Only valid with
	// SweepPointMode "pareto"; each entry follows the Objectives syntax and
	// normalizes to its canonical rendering. Empty with a pareto point mode
	// means one default (all-objectives) set per deadline.
	SweepObjectiveSets []string `json:"sweep_objective_sets,omitempty"`
	// SweepPointMode selects each sweep point's reduction: "" or "scalar"
	// (one minimum-power design per point) or "pareto" (one frontier per
	// point).
	SweepPointMode string `json:"sweep_point_mode,omitempty"`
}

// Validate rejects option values the engine cannot run.
func (o Options) Validate() error {
	switch o.Baseline {
	case "", "reg", "makespan", "regtime":
	default:
		return fmt.Errorf("ingest: unknown baseline %q (want \"\", reg, makespan or regtime)", o.Baseline)
	}
	if _, err := mapping.ParseStrategy(o.Strategy); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	mode, err := ParseMode(o.Mode)
	if err != nil {
		return err
	}
	if mode == ModePareto && o.Baseline != "" {
		return fmt.Errorf("ingest: pareto mode supports only the proposed mapper (baseline %q given)", o.Baseline)
	}
	if _, err := pareto.ParseObjectives(o.Objectives); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if mode != ModePareto && o.Objectives != "" {
		return fmt.Errorf("ingest: objectives %q need mode=pareto", o.Objectives)
	}
	if mode == ModeSweep {
		if len(o.SweepDeadlines) == 0 {
			return fmt.Errorf("ingest: mode=sweep needs at least one sweep deadline")
		}
		if o.Baseline != "" {
			return fmt.Errorf("ingest: sweep mode supports only the proposed mapper (baseline %q given)", o.Baseline)
		}
		for _, d := range o.SweepDeadlines {
			if d < 0 {
				return fmt.Errorf("ingest: negative sweep deadline %v", d)
			}
		}
		pm, err := ParseMode(o.SweepPointMode)
		if err != nil || pm == ModeSweep {
			return fmt.Errorf("ingest: sweep point mode %q (want scalar or pareto)", o.SweepPointMode)
		}
		if pm != ModePareto && len(o.SweepObjectiveSets) > 0 {
			return fmt.Errorf("ingest: sweep objective sets need sweep_point_mode=pareto")
		}
		for _, set := range o.SweepObjectiveSets {
			if _, err := pareto.ParseObjectives(set); err != nil {
				return fmt.Errorf("ingest: sweep objective set: %w", err)
			}
		}
	} else if len(o.SweepDeadlines) > 0 || len(o.SweepObjectiveSets) > 0 || o.SweepPointMode != "" {
		return fmt.Errorf("ingest: sweep options need mode=sweep")
	}
	if o.SampleBudget < 0 {
		return fmt.Errorf("ingest: negative sample budget %d", o.SampleBudget)
	}
	if o.DeadlineSec < 0 {
		return fmt.Errorf("ingest: negative deadline %v", o.DeadlineSec)
	}
	if o.StreamIterations < 0 {
		return fmt.Errorf("ingest: negative stream iterations %d", o.StreamIterations)
	}
	if o.SearchMoves < 0 {
		return fmt.Errorf("ingest: negative search moves %d", o.SearchMoves)
	}
	return nil
}

// normalize resolves the sentinel encodings so that equivalent option sets
// hash identically: SER 0 and the explicit paper rate are the same problem,
// as are every negative "no soft errors" value, and StreamIterations 0 and
// 1. Strategy aliases collapse to their canonical names but distinct
// strategies hash apart — branch-and-bound provably returns the exhaustive
// design, yet cached results still never cross strategies, so a cached
// entry always records exactly which walk produced it (and an approximate
// sampled result, keyed further by its budget, can never be served for an
// exact request).
func (o Options) normalize() Options {
	switch {
	case o.SER == 0:
		o.SER = faults.DefaultSER
	case o.SER < 0:
		o.SER = 0
	}
	if o.StreamIterations < 1 {
		o.StreamIterations = 1
	}
	s, err := mapping.ParseStrategy(o.Strategy)
	if err != nil {
		// Validate rejects unknown strategies before hashing; keep the
		// raw string so a bug cannot alias distinct problems.
		o.Strategy = "invalid:" + o.Strategy
		return o
	}
	o.Strategy = string(s)
	if s != mapping.StrategySampled {
		o.SampleBudget = 0
	} else if o.SampleBudget == 0 {
		o.SampleBudget = mapping.DefaultSampleBudget
	}
	mode, err := ParseMode(o.Mode)
	if err != nil {
		o.Mode = "invalid:" + o.Mode
		return o
	}
	o.Mode = mode
	if mode == ModeSweep {
		// Per-point deadlines replace the scalar one; don't let a stray
		// DeadlineSec split keys of otherwise identical sweeps.
		o.DeadlineSec = 0
		pm, err := ParseMode(o.SweepPointMode)
		if err != nil || pm == ModeSweep {
			o.SweepPointMode = "invalid:" + o.SweepPointMode
			return o
		}
		o.SweepPointMode = pm
		if pm == ModePareto {
			sets := o.SweepObjectiveSets
			if len(sets) == 0 {
				sets = []string{""}
			}
			canon := make([]string, len(sets))
			for i, set := range sets {
				obj, err := pareto.ParseObjectives(set)
				if err != nil {
					canon[i] = "invalid:" + set
					continue
				}
				canon[i] = obj.String()
			}
			o.SweepObjectiveSets = canon
		} else {
			o.SweepObjectiveSets = nil
		}
	} else {
		o.SweepDeadlines = nil
		o.SweepObjectiveSets = nil
		o.SweepPointMode = ""
	}
	if mode == ModePareto {
		// Canonical objective rendering: "gamma, power" and "power,gamma"
		// are the same problem; the default and its explicit spelling too.
		obj, err := pareto.ParseObjectives(o.Objectives)
		if err != nil {
			o.Objectives = "invalid:" + o.Objectives
			return o
		}
		o.Objectives = obj.String()
	} else {
		// The scalar mode ignores objectives; don't let them split keys.
		o.Objectives = ""
	}
	return o
}

// Problem is one fully-specified optimization job: what to optimize (graph),
// where it runs (platform) and how (options).
type Problem struct {
	Graph    *taskgraph.Graph
	Platform *arch.Platform
	Options  Options
	// SweepPlatforms crosses a sweep's deadline points with extra
	// platforms: each sweep point is evaluated on Platform and on every
	// platform listed here, in order. Only valid with mode=sweep.
	SweepPlatforms []*arch.Platform
}

// The problem-key version is bumped whenever the canonical encoding or the
// engine's result semantics change, invalidating previously cached keys.
// v2: exploration strategy + sample budget joined the canonical options.
// v3: optimization mode + Pareto objectives joined the canonical options.
// v4: heterogeneous platforms — the canonical platform became a per-core
// type assignment over class-deduplicated DVS tables (a homogeneous spec
// hashes differently than under v3 but provably produces identical designs).
// v5: contended interconnects — the canonical platform gained an optional
// fabric block. A problem without an interconnect on any platform still
// encodes (and hashes) as v4, byte-identical to the pre-fabric tree, so no
// ideal-fabric cache entry is invalidated; any interconnect anywhere
// selects v5.
const (
	problemKeyVersionIdeal        = 4
	problemKeyVersionInterconnect = 5
)

// keyVersion selects the wire version for a problem: the pre-fabric v4
// whenever every platform uses the ideal fabric, v5 otherwise.
func (p *Problem) keyVersion() int {
	if p.Platform.Interconnect() != nil {
		return problemKeyVersionInterconnect
	}
	for _, sp := range p.SweepPlatforms {
		if sp != nil && sp.Interconnect() != nil {
			return problemKeyVersionInterconnect
		}
	}
	return problemKeyVersionIdeal
}

// canonicalProblem is the stable wire form the ProblemKey hashes. Field
// order is fixed; every field is value-typed or deterministically ordered
// (the graph encoding orders registers by ID, tasks by ID and edges by
// (from, to)). Graph is filled only when decoding: CanonicalEncoding
// marshals it null and splices the graph document in (spliceGraph).
type canonicalProblem struct {
	V        int               `json:"v"`
	Graph    json.RawMessage   `json:"graph"`
	Platform canonicalPlatform `json:"platform"`
	Options  Options           `json:"options"`
	// SweepPlatforms participates only for sweep problems; omitempty keeps
	// every pre-sweep encoding byte-identical under problemKeyVersion 4.
	SweepPlatforms []canonicalPlatform `json:"sweep_platforms,omitempty"`
}

// canonicalPlatform encodes the physical platform only: per-core indices
// into a list of distinct DVS tables. Processor-type *names* and duplicate
// type declarations are canonicalized away via arch's symmetry classes
// (identical tables collapse to one class, ids in first-occurrence order
// over the core list), so two specs describing the same hardware hash
// identically however they spell it.
type canonicalPlatform struct {
	CoreTypes    []int              `json:"core_types"`
	CL           float64            `json:"cl"`
	BaselineBits int64              `json:"baseline_bits"`
	Types        [][]canonicalLevel `json:"types"`
	// Interconnect is the normalized fabric; omitempty keeps every
	// ideal-fabric platform encoding byte-identical to v4.
	Interconnect *canonicalInterconnect `json:"interconnect,omitempty"`
}

// canonicalInterconnect carries the platform's normalized fabric parameters
// (defaults resolved: BitsPerCycle filled, mesh width explicit), so two
// specs describing the same fabric hash identically however they spell it.
type canonicalInterconnect struct {
	Topology      string  `json:"topology"`
	BandwidthBps  float64 `json:"bandwidth_bps"`
	HopLatencySec float64 `json:"hop_latency_sec"`
	BitsPerCycle  float64 `json:"bits_per_cycle"`
	MeshWidth     int     `json:"mesh_width,omitempty"`
}

type canonicalLevel struct {
	S       int     `json:"s"`
	FreqMHz float64 `json:"freq_mhz"`
	Vdd     float64 `json:"vdd"`
}

// canonicalizePlatform renders one platform in the canonical wire form:
// per-core symmetry-class ids plus one DVS table per class, in class-id
// (first-occurrence) order.
func canonicalizePlatform(p *arch.Platform) canonicalPlatform {
	cp := canonicalPlatform{
		CoreTypes:    p.SymmetryClasses(),
		CL:           p.CL(),
		BaselineBits: p.BaselineBits(),
	}
	seen := make(map[int]bool)
	for core, cls := range cp.CoreTypes {
		if seen[cls] {
			continue
		}
		seen[cls] = true
		var levels []canonicalLevel
		for _, l := range p.Levels(core) {
			levels = append(levels, canonicalLevel{S: l.S, FreqMHz: l.FreqMHz, Vdd: l.Vdd})
		}
		cp.Types = append(cp.Types, levels)
	}
	if ic := p.Interconnect(); ic != nil {
		cp.Interconnect = &canonicalInterconnect{
			Topology:      string(ic.Topology),
			BandwidthBps:  ic.BandwidthBps,
			HopLatencySec: ic.HopLatencySec,
			BitsPerCycle:  ic.BitsPerCycle,
			MeshWidth:     ic.MeshWidth,
		}
	}
	return cp
}

// CanonicalEncoding returns the stable byte encoding of the problem that
// Key hashes. Two problems with equal encodings produce identical designs.
// It is DocumentEncoding over the graph's canonical document.
func (p *Problem) CanonicalEncoding() ([]byte, error) {
	if p.Graph == nil {
		return nil, fmt.Errorf("ingest: problem needs both a graph and a platform")
	}
	gj, err := p.Graph.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("ingest: encoding graph for problem key: %w", err)
	}
	return p.DocumentEncoding(gj)
}

// DocumentEncoding returns the canonical encoding of the problem with the
// graph document gj, spliced in verbatim, in place of p.Graph, which it
// does not read. It is the one canonical encoder: CanonicalEncoding passes
// the graph's MarshalJSON output, and the service passes a submitted graph
// document as sent, to look its key up before building the graph.
//
// When gj is one JSON value as jsonscan's Skip delimits it, the key equals
// the key of a problem Q only if gj is Q.Graph.MarshalJSON() byte for byte
// and the platforms and normalized options are equal (SHA-256 collisions
// aside): both encodings open with {"v":N,"graph":, and in both the graph
// member is one bracket-balanced value, whose end its own bytes fix. gj is
// not otherwise checked; a document that is not canonical yields an
// encoding that no problem with a graph has.
func (p *Problem) DocumentEncoding(gj []byte) ([]byte, error) {
	if p.Platform == nil {
		return nil, fmt.Errorf("ingest: problem needs both a graph and a platform")
	}
	if err := p.Options.Validate(); err != nil {
		return nil, err
	}
	mode, _ := ParseMode(p.Options.Mode)
	if len(p.SweepPlatforms) > 0 && mode != ModeSweep {
		return nil, fmt.Errorf("ingest: sweep platforms need mode=sweep")
	}
	cp := canonicalProblem{
		V:        p.keyVersion(),
		Platform: canonicalizePlatform(p.Platform),
		Options:  p.Options.normalize(),
	}
	for _, sp := range p.SweepPlatforms {
		if sp == nil {
			return nil, fmt.Errorf("ingest: nil sweep platform")
		}
		cp.SweepPlatforms = append(cp.SweepPlatforms, canonicalizePlatform(sp))
	}
	env, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return spliceGraph(env, cp.V, gj)
}

// spliceGraph writes the graph document gj into env, an envelope that
// json.Marshal rendered with a null graph right after its "v" field. For a
// compact, HTML-escaped gj, as Graph.MarshalJSON writes, the result is the
// bytes json.Marshal produces with gj as a json.RawMessage, without that
// path's validate-and-compact pass over the graph. Any other gj is spliced
// as it is (see DocumentEncoding).
func spliceGraph(env []byte, v int, gj []byte) ([]byte, error) {
	head := `{"v":` + strconv.Itoa(v) + `,"graph":`
	if !bytes.HasPrefix(env, []byte(head+"null")) {
		return nil, fmt.Errorf("ingest: canonical envelope does not open with %snull", head)
	}
	rest := env[len(head)+len("null"):]
	out := make([]byte, 0, len(head)+len(gj)+len(rest))
	out = append(out, head...)
	out = append(out, gj...)
	return append(out, rest...), nil
}

// Key returns the content-addressed identity of the problem: a SHA-256 over
// the canonical encoding of (graph, platform, options), in the form
// "sha256:<hex>". Identical problems — regardless of the format they were
// ingested from or the execution settings they run under — share a key,
// which is what the service's result cache and single-flight coalescing
// key on.
func (p *Problem) Key() (string, error) {
	enc, err := p.CanonicalEncoding()
	if err != nil {
		return "", err
	}
	return EncodingKey(enc), nil
}

// EncodingKey returns the problem key of an already-computed canonical
// encoding, for callers (the service's durable store, the distributed shard
// protocol) that need both the bytes and their key without hashing twice.
func EncodingKey(enc []byte) string {
	sum := sha256.Sum256(enc)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// canonicalFingerprint is the workload-only slice of the canonical problem:
// graph and platform, no options. Its own version tag moves independently of
// problemKeyVersion, since it only gates probe reuse, never result-cache
// identity. Graph stays null; Fingerprint splices the graph
// document in.
type canonicalFingerprint struct {
	V        int               `json:"v"`
	Graph    json.RawMessage   `json:"graph"`
	Platform canonicalPlatform `json:"platform"`
}

const fingerprintVersion = 1

// Fingerprint is the content identity of the problem's workload alone —
// graph and platform, no options — in the form "fp-sha256:<hex>". Problems
// sharing a fingerprint describe the same hardware running the same
// application under different optimization options. ProbeKey extends it
// with the options the probe depends on, and the service shares one reuse
// bundle among the submissions of one ProbeKey.
func (p *Problem) Fingerprint() (string, error) {
	if p.Graph == nil || p.Platform == nil {
		return "", fmt.Errorf("ingest: problem needs both a graph and a platform")
	}
	gj, err := p.Graph.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("ingest: encoding graph for fingerprint: %w", err)
	}
	env, err := json.Marshal(canonicalFingerprint{
		V:        fingerprintVersion,
		Platform: canonicalizePlatform(p.Platform),
	})
	if err != nil {
		return "", err
	}
	enc, err := spliceGraph(env, fingerprintVersion, gj)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return "fp-sha256:" + hex.EncodeToString(sum[:]), nil
}

// ProbeKey identifies the problem's probe-trajectory universe: the
// fingerprint plus the two options the probe depends on — Seed and the
// normalized stream-iteration count. The probe's climb is independent of
// deadline, SER, strategy, mode and search budgets (see mapping.ProbeCache),
// so every submission sharing a ProbeKey may share one reuse bundle, however
// much those options differ. Form: "probe-sha256:<hex>".
func (p *Problem) ProbeKey() (string, error) {
	fp, err := p.Fingerprint()
	if err != nil {
		return "", err
	}
	iters := p.Options.StreamIterations
	if iters < 1 {
		iters = 1
	}
	enc, err := json.Marshal(struct {
		FP    string `json:"fp"`
		Seed  int64  `json:"seed"`
		Iters int    `json:"iters"`
	}{fp, p.Options.Seed, iters})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return "probe-sha256:" + hex.EncodeToString(sum[:]), nil
}
