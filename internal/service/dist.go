package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"seadopt"
	"seadopt/internal/ingest"
	"seadopt/internal/mapping"
)

// This file is the service's distributed-exploration layer. A coordinator
// (a server configured with Peers) splits an eligible job's scaling
// enumeration into contiguous rank ranges: one range runs embedded, the
// rest POST to peer seadoptd processes as self-contained shard requests
// (the problem travels as its canonical encoding, so the worker provably
// solves the exact problem the coordinator hashed). A peer's request is the
// one an embedded shard takes, a range, a fold and whether to prune, and
// the peer prunes against its own range only. The coordinator then merges
// the shard records in a streaming pass of its own that takes them as
// hints: the merged Design or frontier and the Progress stream are
// byte-identical to a single-node run (see internal/mapping/shard.go for
// the merge and what it trusts a record with).
//
// Every scalar branch-and-bound job walks ranked, and a ranked walk that
// finds a probe-feasible scaling resolves on the coordinator without
// calling a runner, so such a job is neither counted as sharded nor sent to
// a peer. A coordinator of an older build may still send a "threshold"
// member; this build ignores it and walks the range unseeded, which costs
// the peer work but changes no byte of the merge.
//
// Failure posture: a peer that is unreachable, answers non-200 or answers a
// malformed result (mapping.CheckShardResult) costs nothing but time — the
// coordinator re-runs that shard embedded.

// shardCallRequest is the wire form of POST /internal/v1/shard.
type shardCallRequest struct {
	// Problem is the canonical problem encoding (ingest.CanonicalEncoding).
	Problem json.RawMessage `json:"problem"`
	// Req is the shard work order: range, fold selection, pruning.
	Req seadopt.ShardRequest `json:"req"`
}

// shardCallResponse is the worker's reply: the record stream the
// coordinator merges.
type shardCallResponse struct {
	Result *seadopt.ShardResult `json:"result"`
}

// distShardClient makes the shard calls. They run as long as the shard
// itself; the request context (the flight's) is the only deadline.
var distShardClient = &http.Client{}

// shardRunnersFor resolves the shard plan for a flight: nil when the job
// must run single-node (no peers configured, or an ineligible job shape),
// else one runner per shard — slot 0 embedded, the rest bound to peers
// round-robin (embedded too when no peer is configured). The engine may
// call none of them (a seeded ranked scalar job resolves on this node), so
// the first shard call is what sets sharded, counts the flight as a
// sharded execution and encodes the problem for the peers.
func (s *Server) shardRunnersFor(f *flight, sys *seadopt.System, opts seadopt.OptimizeOptions,
	mode string, sharded *atomic.Bool) []seadopt.ShardRunner {
	n := s.cfg.Shards
	if n == 0 {
		n = len(s.cfg.Peers) + 1
	}
	if n <= 1 && len(s.cfg.Peers) == 0 {
		return nil
	}
	// Sharding covers the deterministic contiguous-enumeration engines:
	// scalar and Pareto optimization under branch-and-bound or exhaustive
	// walks. Everything else (sweeps, baselines, sampled portfolios) runs
	// single-node.
	if mode == ingest.ModeSweep || f.problem.Options.Baseline != "" ||
		opts.Strategy == seadopt.StrategySampled {
		return nil
	}
	begin := sync.OnceValues(func() ([]byte, error) {
		sharded.Store(true)
		s.shardedExecs.Add(1)
		return f.problem.CanonicalEncoding()
	})
	embedded := func(ctx context.Context, req seadopt.ShardRequest) (*seadopt.ShardResult, error) {
		begin()
		return sys.RunShard(ctx, opts, req)
	}
	runners := make([]seadopt.ShardRunner, n)
	for i := range runners {
		runners[i] = embedded
		if i > 0 && len(s.cfg.Peers) > 0 {
			runners[i] = s.peerRunner(s.cfg.Peers[(i-1)%len(s.cfg.Peers)], begin, sys, opts)
		}
	}
	return runners
}

// peerRunner returns a ShardRunner that POSTs the shard to a peer seadoptd,
// with the problem encoding that encode returns. Any transport or protocol
// failure, or a result of the wrong shape, falls back to embedded execution
// of the same range — byte-identical, just local.
func (s *Server) peerRunner(peer string, encode func() ([]byte, error),
	sys *seadopt.System, opts seadopt.OptimizeOptions) seadopt.ShardRunner {
	return func(ctx context.Context, req seadopt.ShardRequest) (*seadopt.ShardResult, error) {
		embedded := func(reason string, err error) (*seadopt.ShardResult, error) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			args := []any{"peer", peer, "range_lo", req.Range.Lo, "range_hi", req.Range.Hi, "reason", reason}
			if err != nil {
				args = append(args, "error", err.Error())
			}
			s.cfg.Logger.Warn("peer shard fell back to embedded execution", args...)
			return sys.RunShard(ctx, opts, req)
		}
		enc, err := encode()
		if err != nil {
			return embedded("encode", err)
		}
		body, err := json.Marshal(shardCallRequest{Problem: enc, Req: req})
		if err != nil {
			return embedded("encode", err)
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimRight(peer, "/")+"/internal/v1/shard", bytes.NewReader(body))
		if err != nil {
			return embedded("request", err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := distShardClient.Do(hreq)
		if err != nil {
			return embedded("unreachable", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return embedded(fmt.Sprintf("status %d", resp.StatusCode), nil)
		}
		var cres shardCallResponse
		if err := json.NewDecoder(resp.Body).Decode(&cres); err != nil {
			return embedded("decode", err)
		}
		if err := mapping.CheckShardResult(cres.Result, req.Range, sys.Graph, sys.Platform); err != nil {
			return embedded("malformed result", err)
		}
		return cres.Result, nil
	}
}

// handleShard executes one shard range for a remote coordinator.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var creq shardCallRequest
	if err := json.Unmarshal(body, &creq); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding shard request: %w", err))
		return
	}
	p, err := ingest.DecodeProblem(creq.Problem)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sys, err := seadopt.NewSystem(p.Graph, p.Platform)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := s.engineOptions(p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.shardsServed.Add(1)
	s.cfg.Logger.Info("shard request",
		"graph", p.Graph.Name(), "range_lo", creq.Req.Range.Lo, "range_hi", creq.Req.Range.Hi,
		"pareto", creq.Req.Pareto)
	res, err := sys.RunShard(r.Context(), opts, creq.Req)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, shardCallResponse{Result: res})
}
