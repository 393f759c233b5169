package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"seadopt/internal/faults"
	"seadopt/internal/mapping"
	"seadopt/internal/taskgraph"

	"seadopt/internal/arch"
)

// exploreStats runs a real parallel exploration with telemetry attached and
// returns the snapshot, so the exporter test covers genuine span/event data.
func exploreStats(t *testing.T) *mapping.ExploreStats {
	t.Helper()
	g := taskgraph.MPEG2()
	p := arch.MustNewPlatform(4, arch.ARM7Levels3())
	tel := mapping.NewTelemetry()
	cfg := mapping.Config{
		SER:         faults.NewSERModel(faults.DefaultSER),
		DeadlineSec: taskgraph.MPEG2Deadline,
		Iterations:  taskgraph.MPEG2Frames,
		SearchMoves: 200,
		Seed:        1,
		Parallelism: 4,
		Telemetry:   tel,
	}
	if _, err := mapping.Explore(g, p, mapping.SEAMapper(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	return tel.Stats()
}

func TestWriteExploration(t *testing.T) {
	st := exploreStats(t)
	var buf bytes.Buffer
	if err := WriteExploration(&buf, "test exploration", st); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("missing displayTimeUnit")
	}

	// One named thread row per worker plus the events row, whatever the
	// span recording looked like.
	rows := map[int]string{}
	var spans, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name == "thread_name" {
				rows[ev.TID] = ev.Args["name"].(string)
			}
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Errorf("negative duration: %+v", ev)
			}
		case "i":
			instants++
			if ev.Scope != "t" {
				t.Errorf("instant event without thread scope: %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	for _, ws := range st.Workers {
		if _, ok := rows[ws.Worker]; !ok {
			t.Errorf("worker %d has no thread row", ws.Worker)
		}
	}
	if _, ok := rows[len(st.Workers)]; !ok {
		t.Error("missing exploration-events row")
	}
	var wantSpans int
	for _, ws := range st.Workers {
		wantSpans += len(ws.Spans)
	}
	if spans != wantSpans {
		t.Errorf("rendered %d duration events, want %d", spans, wantSpans)
	}
	if instants != len(st.Events) {
		t.Errorf("rendered %d instant events, want %d", instants, len(st.Events))
	}
}

func TestWriteExplorationNilStats(t *testing.T) {
	if err := WriteExploration(&bytes.Buffer{}, "x", nil); err == nil {
		t.Fatal("want error for nil stats")
	}
}
