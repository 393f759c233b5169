package service

import (
	"sync"

	"seadopt"
)

// reuseRegistry is the service's one cross-job acceleration registry: it
// shares the engine's verdict-preserving reuse layer (probe trajectories,
// the bounds precompute, pooled evaluators) between jobs whose problems
// share a ProbeKey — same graph, platform, seed and stream-iteration count,
// whatever their deadline, SER, strategy or mode. Sharing it never changes
// any result byte. A scalar branch-and-bound job walks ranked over it (see
// engineOptions) and re-probes no combination an earlier job over the
// universe probed; a Pareto job reads the same probe cache but takes no
// seed from an earlier frontier, pruning against its own only.
//
// It is a goroutine-safe LRU: a long-running daemon's memory stays bounded,
// and evicting an entry only detaches it from future jobs (flights already
// holding the bundle keep using it safely) and costs the next matching job
// a cold start.
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
