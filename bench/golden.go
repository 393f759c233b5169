package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"seadopt"
	"seadopt/internal/service"
)

// golden maps workload → problem key → SHA-256 of the result bytes: a
// flagship solve's Design JSON, or a job's result payload. The corpora are
// fixed (the seed only orders them), so the digests hold for every seed.
type golden map[string]map[string]string

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadGolden(path string) (golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading recorded digests: %w", err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return g, nil
}

// check compares a result with its recorded digest. Keys without a record
// pass; the caller decides which keys must have one.
func (g golden) check(workload, key string, result []byte) error {
	want, ok := g[workload][key]
	if !ok {
		return nil
	}
	if got := digest(result); got != want {
		return fmt.Errorf("%s %s: result digest %.12s, recorded %.12s", workload, key, got, want)
	}
	return nil
}

func (g golden) has(workload, key string) bool {
	_, ok := g[workload][key]
	return ok
}

// updateGolden recomputes every digest in-process, without HTTP or the
// journal: flagship designs through the seadopt API, job results through an
// in-process service.Server. The benchmark then checks the daemon's bytes
// against them.
func updateGolden(ctx context.Context, o options, w io.Writer) error {
	g := golden{}
	for _, noc := range []bool{false, true} {
		name := flagshipIdeal
		if noc {
			name = flagshipNoC
		}
		corpus, err := flagshipCorpus(noc, o.size.flagshipProblems)
		if err != nil {
			return err
		}
		g[name] = map[string]string{}
		for _, prob := range corpus {
			sys, err := seadopt.NewSystem(prob.graph, prob.platform)
			if err != nil {
				return err
			}
			d, err := sys.OptimizeContext(ctx, flagshipOptions(prob))
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, prob.key, err)
			}
			data, err := json.Marshal(d)
			if err != nil {
				return err
			}
			g[name][prob.key] = digest(data)
			fmt.Fprintf(w, "%s %s %.12s\n", name, prob.key, g[name][prob.key])
		}
	}

	pairs, err := mixedCorpus(o.size.mixedGraphs)
	if err != nil {
		return err
	}
	var mixed []jobSpec
	for _, p := range pairs {
		mixed = append(mixed, p.cold, p.warm)
	}
	hot, err := hotCorpus(o.size.hotGraphs)
	if err != nil {
		return err
	}
	for k := 0; k < hotGoldenCoalesced; k++ {
		spec, err := hotCoalesced(hot, k)
		if err != nil {
			return err
		}
		hot = append(hot, spec)
	}
	for _, set := range []struct {
		name  string
		specs []jobSpec
	}{{serviceMixed, mixed}, {serviceHot, hot}} {
		digests, err := solveInProcess(ctx, set.specs)
		if err != nil {
			return fmt.Errorf("%s: %w", set.name, err)
		}
		g[set.name] = digests
		fmt.Fprintf(w, "%s: %d digests\n", set.name, len(digests))
	}

	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.golden), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.golden, append(data, '\n'), 0o644)
}

// solveInProcess runs every job through an in-process service.Server with
// two workers and returns key → result digest.
func solveInProcess(ctx context.Context, specs []jobSpec) (map[string]string, error) {
	srv, err := service.NewServer(service.Config{Workers: 2, EngineParallelism: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Close(context.Background())
	out := make(map[string]string, len(specs))
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, spec := range specs {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(spec jobSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			result, err := solveJob(ctx, srv, spec)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", spec.key, err)
				}
				return
			}
			out[spec.key] = digest(result)
		}(spec)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, ctx.Err()
}

// solveJob submits one job to an in-process server and waits for its
// result bytes.
func solveJob(ctx context.Context, srv *service.Server, spec jobSpec) ([]byte, error) {
	st, err := srv.Submit(spec.problem, 0)
	if err != nil {
		return nil, err
	}
	if !st.State.Terminal() {
		watcher, err := srv.Watch(st.ID)
		if err != nil {
			return nil, err
		}
		for {
			if _, ok := watcher.Next(ctx); !ok {
				break
			}
		}
		if st, err = srv.Job(st.ID); err != nil {
			return nil, err
		}
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st.Result, nil
}
