// Package trace exports schedules and cycle-level simulation runs in the
// Chrome Trace Event format (the JSON consumed by chrome://tracing and
// https://ui.perfetto.dev), so MPSoC executions can be inspected visually:
// one row per processing core, one duration event per task instance, with
// metadata rows naming the cores by their DVS operating point.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"seadopt/internal/sim"
)

// event is one Chrome trace event. Only the fields this exporter uses.
type event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope ("t")
	Args  map[string]any `json:"args,omitempty"`
}

// document is the top-level trace file.
type document struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

const pid = 1 // one MPSoC = one process row

// metadataEvents names the process and one thread per core.
func metadataEvents(title string, scaling []int) []event {
	evs := []event{{
		Name: "process_name", Phase: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": title},
	}}
	for c, s := range scaling {
		evs = append(evs, event{
			Name: "thread_name", Phase: "M", PID: pid, TID: c,
			Args: map[string]any{"name": fmt.Sprintf("core %d (s=%d)", c, s)},
		})
	}
	return evs
}

// WriteSimulation exports a cycle-level simulation run, one duration event
// per executed task instance (iteration-tagged for pipelined runs).
func WriteSimulation(w io.Writer, r *sim.Result) error {
	doc := document{DisplayTimeUnit: "ms"}
	doc.TraceEvents = metadataEvents("seadopt simulation: "+r.Graph.Name(), r.Scaling)
	for _, ev := range r.Events {
		task := r.Graph.Task(ev.Task)
		name := task.Name
		if ev.Iteration > 0 {
			name = fmt.Sprintf("%s #%d", task.Name, ev.Iteration)
		}
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name:  name,
			Phase: "X",
			TS:    ev.Start.Seconds() * 1e6,
			Dur:   (ev.End - ev.Start).Seconds() * 1e6,
			PID:   pid,
			TID:   ev.Core,
			Args: map[string]any{
				"task":      int(ev.Task),
				"iteration": ev.Iteration,
			},
		})
	}
	return json.NewEncoder(w).Encode(doc)
}
