package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into the
// program: a solve, a job's POST / first SSE event / done event, a rung.
// Spans stay in memory and are written once, in Chrome trace format, when
// the run ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the ID of the enclosing span (0 for a
// root); Job groups the spans of one solve or job.
type span struct {
	ID     int
	Parent int
	Name   string
	Job    string
	Lane   int // client goroutine, 0 for the main goroutine
	Start  time.Time
	End    time.Time
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// record stores a finished span and returns its ID for use as a parent.
func (t *tracer) record(name, job string, lane, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Lane: lane, Start: start, End: end})
	return id
}

// begin opens a span whose children are recorded before it ends; finish
// closes it.
func (t *tracer) begin(name string, lane int, start time.Time) int {
	return t.record(name, "", lane, 0, start, start)
}

func (t *tracer) finish(id int, job string, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Job = job
	t.spans[id-1].End = end
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// loadable in ui.perfetto.dev or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as a Chrome trace at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"span": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Job != "" {
			args["job"] = s.Job
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(t.base).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Lane,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
