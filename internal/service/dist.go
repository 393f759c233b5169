package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"seadopt"
	"seadopt/internal/ingest"
)

// This file is the service's distributed-exploration layer. A coordinator
// (a server configured with Peers) splits an eligible job's scaling
// enumeration into contiguous rank ranges: one range runs embedded, the
// rest POST to peer seadoptd processes as self-contained shard requests
// (the problem travels as its canonical encoding, so the worker provably
// solves the exact problem the coordinator hashed). While shards run, they
// exchange bound-tightening facts through the coordinator's fact board —
// remote workers poll POST /internal/v1/exchange — so every shard prunes
// against the global best. The coordinator then merges the shard records
// through the engine's authoritative single-node replay: the merged Design
// or frontier and the Progress stream are byte-identical to a single-node
// run (see internal/mapping/shard.go for the replay contract).
//
// Failure posture: a peer that is unreachable or answers non-200 costs
// nothing but time — the coordinator re-runs that shard embedded. The fact
// exchange is best-effort; losing it only weakens remote pruning, never
// changes bytes.

// exchangePollInterval is how often a worker syncs facts with its
// coordinator while a shard runs.
const exchangePollInterval = 25 * time.Millisecond

// shardCallRequest is the wire form of POST /internal/v1/shard.
type shardCallRequest struct {
	// Problem is the canonical problem encoding (ingest.CanonicalEncoding).
	Problem json.RawMessage `json:"problem"`
	// Req is the shard work order: range, fold selection, seed facts.
	Req seadopt.ShardRequest `json:"req"`
	// Exchange is the coordinator's fact-exchange URL; empty disables the
	// live fact sync (the worker then prunes only on InitialFacts).
	Exchange string `json:"exchange,omitempty"`
	// Token names the coordinator-side exchange session.
	Token string `json:"token,omitempty"`
}

// shardCallResponse is the worker's reply: the record stream the
// coordinator replays.
type shardCallResponse struct {
	Result *seadopt.ShardResult `json:"result"`
}

// exchangeRequest is the wire form of POST /internal/v1/exchange: the
// worker pushes its newly published facts and asks for everything the
// board accumulated since its last poll.
type exchangeRequest struct {
	Token string              `json:"token"`
	Since int                 `json:"since"`
	Facts []seadopt.ShardFact `json:"facts,omitempty"`
}

type exchangeResponse struct {
	Facts []seadopt.ShardFact `json:"facts,omitempty"`
	Next  int                 `json:"next"`
}

// exchangeTable tracks the coordinator's live fact boards by session token.
type exchangeTable struct {
	mu sync.Mutex
	m  map[string]*seadopt.ShardFactBoard
}

func (t *exchangeTable) put(token string, b *seadopt.ShardFactBoard) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*seadopt.ShardFactBoard)
	}
	t.m[token] = b
}

func (t *exchangeTable) get(token string) *seadopt.ShardFactBoard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[token]
}

func (t *exchangeTable) del(token string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, token)
}

var (
	// Exchange polls are small and frequent; bound them tightly.
	distExchangeClient = &http.Client{Timeout: 5 * time.Second}
	// Shard calls run as long as the shard itself; the request context
	// (the flight's) is the only deadline.
	distShardClient = &http.Client{}
)

// shardRunnersFor resolves the shard plan for a flight: nil when the job
// must run single-node (no peers configured, or an ineligible job shape),
// else one runner slot per shard — slot 0 nil (embedded), the rest bound
// to peers round-robin. The returned cleanup tears down the fact-exchange
// session and must be called once the sharded run returns.
func (s *Server) shardRunnersFor(f *flight, sys *seadopt.System, opts seadopt.OptimizeOptions,
	mode string) ([]seadopt.ShardRunner, func()) {
	n := s.cfg.Shards
	if n == 0 {
		n = len(s.cfg.Peers) + 1
	}
	if n <= 1 && len(s.cfg.Peers) == 0 {
		return nil, nil
	}
	// Sharding covers the deterministic contiguous-enumeration engines:
	// scalar and Pareto optimization under branch-and-bound or exhaustive
	// walks. Everything else (sweeps, baselines, sampled portfolios) runs
	// single-node.
	if mode == ingest.ModeSweep || f.problem.Options.Baseline != "" ||
		opts.Strategy == seadopt.StrategySampled {
		return nil, nil
	}
	enc, err := f.problem.CanonicalEncoding()
	if err != nil {
		return nil, nil
	}
	token := fmt.Sprintf("x-%06d", s.shardSeq.Add(1))
	runners := make([]seadopt.ShardRunner, n)
	if len(s.cfg.Peers) > 0 {
		for i := 1; i < n; i++ {
			peer := s.cfg.Peers[(i-1)%len(s.cfg.Peers)]
			runners[i] = s.peerRunner(peer, token, enc, sys, opts)
		}
	}
	s.shardedExecs.Add(1)
	return runners, func() { s.exchanges.del(token) }
}

// peerRunner returns a ShardRunner that POSTs the shard to a peer seadoptd,
// registering the coordinator's fact board under the session token so the
// peer can poll the exchange. Any transport or protocol failure falls back
// to embedded execution of the same range — byte-identical, just local.
func (s *Server) peerRunner(peer, token string, enc []byte,
	sys *seadopt.System, opts seadopt.OptimizeOptions) seadopt.ShardRunner {
	return func(ctx context.Context, req seadopt.ShardRequest, board *seadopt.ShardFactBoard) (*seadopt.ShardResult, error) {
		embedded := func(reason string, err error) (*seadopt.ShardResult, error) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			args := []any{"peer", peer, "range_lo", req.Range.Lo, "range_hi", req.Range.Hi, "reason", reason}
			if err != nil {
				args = append(args, "error", err.Error())
			}
			s.cfg.Logger.Warn("peer shard fell back to embedded execution", args...)
			return sys.RunShard(ctx, opts, req, board)
		}
		exchange := ""
		if s.cfg.AdvertiseURL != "" {
			s.exchanges.put(token, board)
			exchange = strings.TrimRight(s.cfg.AdvertiseURL, "/") + "/internal/v1/exchange"
		}
		// Seed the worker with everything the board holds already (the
		// coordinator's ranked/warm incumbent fact in particular), so even
		// an exchange-less worker prunes against it.
		req.InitialFacts, _ = board.Since(0)
		body, err := json.Marshal(shardCallRequest{Problem: enc, Req: req, Exchange: exchange, Token: token})
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
		if cres.Result == nil {
			return embedded("empty result", nil)
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
		"pareto", creq.Req.Pareto, "exchange", creq.Exchange != "")
	board := seadopt.NewShardFactBoard()
	if creq.Exchange != "" && creq.Token != "" {
		stop := s.pollExchange(r.Context(), creq.Exchange, creq.Token, board)
		defer stop()
	}
	res, err := sys.RunShard(r.Context(), opts, creq.Req, board)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, shardCallResponse{Result: res})
}

// pollExchange runs the worker-side fact sync: every poll it pushes the
// facts its shard published locally and merges back everything the
// coordinator's board accumulated. Returns a stop function that performs a
// final flush. All failures are swallowed — the exchange accelerates
// pruning but never affects result bytes.
func (s *Server) pollExchange(ctx context.Context, url, token string, board *seadopt.ShardFactBoard) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		local, remote := 0, 0
		flush := func() {
			facts, next := board.Since(local)
			local = next
			body, err := json.Marshal(exchangeRequest{Token: token, Since: remote, Facts: facts})
			if err != nil {
				return
			}
			hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				return
			}
			hreq.Header.Set("Content-Type", "application/json")
			resp, err := distExchangeClient.Do(hreq)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var xres exchangeResponse
			if err := json.NewDecoder(resp.Body).Decode(&xres); err != nil {
				return
			}
			for _, f := range xres.Facts {
				board.Publish(f)
			}
			remote = xres.Next
		}
		tick := time.NewTicker(exchangePollInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				flush() // final flush so the coordinator sees every fact
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				flush()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// handleExchange serves the coordinator side of the fact sync: publish the
// worker's pushed facts, return everything new since the worker's cursor.
func (s *Server) handleExchange(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var xreq exchangeRequest
	if err := json.Unmarshal(body, &xreq); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding exchange request: %w", err))
		return
	}
	board := s.exchanges.get(xreq.Token)
	if board == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no exchange session %q", xreq.Token))
		return
	}
	for _, f := range xreq.Facts {
		board.Publish(f)
	}
	facts, next := board.Since(xreq.Since)
	writeJSON(w, http.StatusOK, exchangeResponse{Facts: facts, Next: next})
}
