package service

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"seadopt"
	"seadopt/internal/ingest"
)

// This file holds the two cross-job acceleration registries:
//
//   - reuseRegistry shares the engine's verdict-preserving reuse layer
//     (probe trajectories, the bounds precompute, pooled evaluators)
//     between jobs whose problems share a ProbeKey — same graph, platform,
//     seed and stream-iteration count, whatever their deadline, SER or
//     strategy. Sharing it never changes any result byte.
//
//   - warmRegistry remembers finished results by problem Fingerprint so a
//     later submission over the same workload — with a different deadline
//     or objective set — starts its branch-and-bound from a near-optimal
//     incumbent (scalar WarmHints) or a pre-seeded dominance frontier
//     (Pareto WarmFrontier). Hints are re-validated by the receiving run's
//     own probe, so the final Design/frontier is byte-identical to a cold
//     run; only the pruned/skipped split of the progress stream may differ.
//
// Both are small LRUs: a long-running daemon's memory stays bounded and an
// evicted bundle simply costs the next matching job a cold start.

// warmSig is the eligibility signature of cross-job warm seeding: the
// options that shape realized design points for a fixed workload. Two
// problems with equal Fingerprint and equal warmSig realize identical
// (mapping, evaluation) pairs for every scaling combination they both
// visit, which is exactly the soundness contract of WarmHints and
// WarmFrontier.
func warmSig(o ingest.Options) string {
	iters := o.StreamIterations
	if iters < 1 {
		iters = 1
	}
	var sb strings.Builder
	sb.WriteString(strconv.FormatInt(o.Seed, 10))
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(iters))
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(o.SearchMoves))
	sb.WriteByte('|')
	sb.WriteString(strconv.FormatUint(math.Float64bits(o.SER), 16))
	return sb.String()
}

// warmScalarKey addresses the scalar hint list of a workload: winners from
// any deadline are useful hints for any other, so the deadline is NOT part
// of the key.
func warmScalarKey(fingerprint string, o ingest.Options) string {
	return fingerprint + "|" + warmSig(o) + "|scalar"
}

// warmParetoKey addresses a workload's frontier at one deadline: frontier
// ghosts are sound only against runs whose mapper inputs differ at most in
// the objective selection, so the deadline IS part of the key.
func warmParetoKey(fingerprint string, o ingest.Options) string {
	return fingerprint + "|" + warmSig(o) + "|pareto|" +
		strconv.FormatFloat(o.DeadlineSec, 'g', -1, 64)
}

// maxWarmHints caps the scalar hint list per workload; hints beyond the
// few most recent winners rarely tighten the incumbent further.
const maxWarmHints = 8

type warmEntry struct {
	hints  []int
	points []seadopt.WarmPoint
}

// warmRegistry is a goroutine-safe LRU of warm-start seeds.
type warmRegistry struct {
	mu      sync.Mutex
	entries *lru[*warmEntry]
}

func newWarmRegistry(capacity int) *warmRegistry {
	return &warmRegistry{entries: newLRU[*warmEntry](capacity)}
}

// entry returns key's entry, created on first use and promoted to
// most-recently-used. The caller holds r.mu.
func (r *warmRegistry) entry(key string) *warmEntry {
	e, ok := r.entries.Get(key)
	if !ok {
		e = new(warmEntry)
		r.entries.Add(key, e)
	}
	return e
}

// Hints returns a copy of the recorded scalar winner ranks for key.
func (r *warmRegistry) Hints(key string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries.Get(key); ok {
		return append([]int(nil), e.hints...)
	}
	return nil
}

// RecordHint prepends a scalar winner rank to key's hint list (deduplicated,
// capped at maxWarmHints).
func (r *warmRegistry) RecordHint(key string, rank int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(key)
	hints := make([]int, 0, len(e.hints)+1)
	hints = append(hints, rank)
	for _, h := range e.hints {
		if h != rank && len(hints) < maxWarmHints {
			hints = append(hints, h)
		}
	}
	e.hints = hints
}

// Frontier returns a copy of the recorded frontier seed points for key.
func (r *warmRegistry) Frontier(key string) []seadopt.WarmPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries.Get(key); ok {
		return append([]seadopt.WarmPoint(nil), e.points...)
	}
	return nil
}

// RecordFrontier replaces key's frontier seed with the latest realized one.
func (r *warmRegistry) RecordFrontier(key string, points []seadopt.WarmPoint) {
	if len(points) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entry(key).points = append([]seadopt.WarmPoint(nil), points...)
}

// reuseRegistry is a goroutine-safe LRU of engine reuse bundles keyed by
// ProbeKey. Evicting an entry only detaches it from future jobs; flights
// already holding the bundle keep using it safely.
type reuseRegistry struct {
	mu      sync.Mutex
	bundles *lru[*seadopt.ExploreReuse]
}

func newReuseRegistry(capacity int) *reuseRegistry {
	return &reuseRegistry{bundles: newLRU[*seadopt.ExploreReuse](capacity)}
}

// Get returns the shared reuse bundle for key, creating it on first use.
func (r *reuseRegistry) Get(key string) *seadopt.ExploreReuse {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bundles.Get(key)
	if !ok {
		b = seadopt.NewExploreReuse()
		r.bundles.Add(key, b)
	}
	return b
}

// warmFingerprint returns the fingerprint a problem's warm-start seeds are
// keyed by, and whether the problem may seed or be seeded at all: the
// baselines' annealing mappers realize other designs than the paper's
// mapper, so their results stay out of the registry.
func warmFingerprint(p *ingest.Problem) (string, bool) {
	if p.Options.Baseline != "" {
		return "", false
	}
	fp, err := p.Fingerprint()
	return fp, err == nil
}

// recordHint records a scalar winner as a warm-start hint and journals it,
// so the warm registry survives a restart. Only a design that meets its
// deadline (always true without one) seeds later runs.
func (s *Server) recordHint(key string, sys *seadopt.System, d *seadopt.Design) {
	if !d.Eval.MeetsDeadline {
		return
	}
	rank, err := sys.ScalingRank(d.Scaling)
	if err != nil {
		return
	}
	s.warm.RecordHint(key, rank)
	if s.store != nil {
		if err := s.store.Append(storeRecord{Kind: "hint", Key: key, Rank: rank}); err != nil {
			s.cfg.Logger.Warn("store append failed", "kind", "hint", "error", err.Error())
		}
	}
}

// recordFrontier records a Pareto frontier's deadline-meeting members as
// warm-start ghosts and journals them.
func (s *Server) recordFrontier(key string, sys *seadopt.System, frontier []*seadopt.Design) {
	points := sys.WarmPoints(frontier)
	if len(points) == 0 {
		return
	}
	s.warm.RecordFrontier(key, points)
	if s.store != nil {
		if err := s.store.Append(storeRecord{Kind: "frontier", Key: key, Points: toStorePoints(points)}); err != nil {
			s.cfg.Logger.Warn("store append failed", "kind", "frontier", "error", err.Error())
		}
	}
}
