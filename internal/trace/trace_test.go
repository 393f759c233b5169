package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/sched"
	"seadopt/internal/sim"
	"seadopt/internal/taskgraph"
)

func setup(t *testing.T) (*taskgraph.Graph, *arch.Platform, sched.Mapping, []int) {
	t.Helper()
	g := taskgraph.Fig8()
	p := arch.MustNewPlatform(3, arch.ARM7Levels3())
	return g, p, sched.Mapping{0, 1, 0, 1, 0, 2}, []int{1, 2, 2}
}

// decode parses the exported JSON back into a generic structure.
func decode(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return doc
}

func TestWriteSimulation(t *testing.T) {
	g, p, m, scaling := setup(t)
	const iters = 4
	r, err := sim.Run(g, p, m, scaling, sim.Config{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSimulation(&buf, r); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, buf.Bytes())
	events := doc["traceEvents"].([]any)
	durations := 0
	iterTagged := 0
	for _, e := range events {
		ev := e.(map[string]any)
		if ev["ph"] == "X" {
			durations++
			if args, ok := ev["args"].(map[string]any); ok {
				if it, ok := args["iteration"].(float64); ok && it > 0 {
					iterTagged++
				}
			}
		}
	}
	if durations != g.N()*iters {
		t.Errorf("%d duration events, want %d", durations, g.N()*iters)
	}
	if iterTagged != g.N()*(iters-1) {
		t.Errorf("%d iteration-tagged events, want %d", iterTagged, g.N()*(iters-1))
	}
}
