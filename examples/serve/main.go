// Optimization-as-a-service walkthrough: starts the seadoptd service core
// in-process on an ephemeral port, submits a random workload in Graphviz
// DOT format (the ingestion layer fills in deterministic register/WCET
// defaults), streams the design-space exploration over Server-Sent Events,
// fetches the final design, and resubmits the same problem to demonstrate
// the content-addressed cache answering without a second engine execution.
//
//	go run ./examples/serve [-tasks 30] [-seed 11]
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"seadopt"
	"seadopt/internal/service"
)

func main() {
	tasks := flag.Int("tasks", 30, "task count of the random workload")
	seed := flag.Int64("seed", 11, "workload seed (disconnected draws are skipped)")
	flag.Parse()

	// The ingestion layer rejects disconnected graphs, and the §V random
	// generator occasionally draws one — skip to the next seed when it does.
	var dot string
	var deadline float64
	for s := *seed; ; s++ {
		g, err := seadopt.RandomGraph(seadopt.DefaultRandomGraphConfig(*tasks), s)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := seadopt.ParseGraph("dot", strings.NewReader(g.DOT())); err != nil {
			fmt.Printf("seed %d: %v (trying %d)\n", s, err, s+1)
			continue
		}
		fmt.Printf("workload: %s — %d tasks, %d edges, deadline %.1f s\n",
			g.Name(), g.N(), len(g.Edges()), seadopt.RandomGraphDeadline(*tasks))
		dot = g.DOT()
		deadline = seadopt.RandomGraphDeadline(*tasks)
		break
	}

	// Boot the service core in-process, exactly as cmd/seadoptd does.
	svc, err := service.NewServer(service.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("seadoptd core listening on %s\n\n", base)

	// Submit the DOT document raw, with the job parameters in the query
	// string — what `curl --data-binary @graph.dot` does.
	url := fmt.Sprintf("%s/v1/jobs?format=dot&cores=4&levels=3&deadline_sec=%g&seed=%d", base, deadline, *seed)
	resp, err := http.Post(url, "text/vnd.graphviz", strings.NewReader(dot))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		Key   string `json:"key"`
		State string `json:"state"`
	}
	decode(resp, &job)
	fmt.Printf("submitted job %s (%s)\n  problem key %s\n\n", job.ID, job.State, job.Key)

	// Follow the SSE progress stream: one event per scaling combination,
	// in enumeration order, then a terminal done event.
	fmt.Println("streaming design-space exploration progress:")
	sresp, err := http.Get(base + "/v1/jobs/" + job.ID + "/progress")
	if err != nil {
		log.Fatal(err)
	}
	var final struct {
		State   string          `json:"state"`
		Summary string          `json:"summary"`
		Result  json.RawMessage `json:"result"`
	}
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				var ev struct {
					Index    int     `json:"index"`
					Total    int     `json:"total"`
					Scaling  []int   `json:"scaling"`
					PowerW   float64 `json:"power_w"`
					Gamma    float64 `json:"gamma"`
					Feasible bool    `json:"feasible"`
				}
				if err := json.Unmarshal([]byte(data), &ev); err == nil {
					met := "infeasible"
					if ev.Feasible {
						met = "feasible"
					}
					fmt.Printf("  [%2d/%2d] scaling %v  P=%.3f mW  Γ=%.4g  %s\n",
						ev.Index+1, ev.Total, ev.Scaling, ev.PowerW*1e3, ev.Gamma, met)
				}
			} else if event == "done" {
				_ = json.Unmarshal([]byte(data), &final)
			}
		}
	}
	sresp.Body.Close()
	fmt.Printf("\njob finished (%s):\n%s\n", final.State, final.Summary)

	// Resubmit the identical problem: the content-addressed cache answers
	// immediately, without another engine execution.
	resp2, err := http.Post(url, "text/vnd.graphviz", strings.NewReader(dot))
	if err != nil {
		log.Fatal(err)
	}
	var again struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	decode(resp2, &again)
	fmt.Printf("resubmission %s: state %s, cache_hit %v\n\n", again.ID, again.State, again.CacheHit)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	fmt.Println("operational counters:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "seadoptd_engine_executions_total") ||
			strings.HasPrefix(line, "seadoptd_cache_hits_total") ||
			strings.HasPrefix(line, "seadoptd_coalesced_total") {
			fmt.Println("  " + line)
		}
	}

	// Graceful drain, as SIGTERM would do it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if err := svc.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nservice drained cleanly")
}

func decode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
