package ingest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"seadopt/internal/taskgraph"
)

// chainDoc returns the n-edge chain t0 -> … -> tn in format f: DOT in the
// one-edge-statement form of the HTTP size-cap test, TGFF as TASK
// statements followed by ARC statements, or the canonical JSON encoding.
func chainDoc(f Format, n int) []byte {
	var b strings.Builder
	switch f {
	case FormatDOT:
		b.WriteString("digraph chain {")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " t%d -> t%d;", i, i+1)
		}
		b.WriteString(" }")
	case FormatTGFF:
		b.WriteString("@TASK_GRAPH 0 {\n")
		for i := 0; i <= n; i++ {
			fmt.Fprintf(&b, "  TASK t%d TYPE 0\n", i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "  ARC a%d FROM t%d TO t%d TYPE 0\n", i, i, i+1)
		}
		b.WriteString("}\n")
	case FormatJSON:
		b.WriteString(`{"name":"chain","registers":[],"tasks":[`)
		for i := 0; i <= n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name":"t%d","cycles":1,"registers":[]}`, i)
		}
		b.WriteString(`],"edges":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"from":%d,"to":%d,"cycles":0}`, i, i+1)
		}
		b.WriteString(`]}`)
	}
	return []byte(b.String())
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOversizedGraphsRefusedEarly: each parser refuses a chain over the
// task cap naming the cap, without first building the whole graph. The
// bounds are a tenth or less of what building it cost: 1 253 MB for the
// 600 000-task DOT chain, 177 MB (28 bytes per document byte) for the
// 100 000-task TGFF chain and 86 MB (10.6 per byte) for the JSON one.
func TestOversizedGraphsRefusedEarly(t *testing.T) {
	cases := []struct {
		format   Format
		tasks    int
		maxBytes func(doc []byte) uint64
	}{
		{FormatDOT, 600_000, func([]byte) uint64 { return 125 << 20 }},
		{FormatTGFF, 100_000, func(doc []byte) uint64 { return 2 * uint64(len(doc)) }},
		{FormatJSON, 100_000, func(doc []byte) uint64 { return 7 * uint64(len(doc)) }},
	}
	for _, tc := range cases {
		t.Run(string(tc.format), func(t *testing.T) {
			doc := chainDoc(tc.format, tc.tasks)
			var err error
			n := allocated(func() { _, err = ParseBytes(tc.format, doc) })
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cap of %d", taskgraph.MaxTasks)) {
				t.Fatalf("error %v, want one naming the task cap", err)
			}
			if limit := tc.maxBytes(doc); n > limit {
				t.Fatalf("refusing a %d-byte document allocated %d bytes, over %d", len(doc), n, limit)
			}
			if tc.format == FormatDOT {
				if n := allocated(func() { _, _ = Detect(doc) }); n >= 1<<10 {
					t.Fatalf("Detect allocated %d bytes", n)
				}
			}
		})
	}
}

// TestChainsAtTheCapsParse: the early refusals leave graphs at the caps
// alone — a chain of MaxTasks tasks parses in every format.
func TestChainsAtTheCapsParse(t *testing.T) {
	for _, format := range []Format{FormatDOT, FormatTGFF, FormatJSON} {
		g, err := ParseBytes(format, chainDoc(format, taskgraph.MaxTasks-1))
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if g.N() != taskgraph.MaxTasks {
			t.Fatalf("%s: %d tasks, want %d", format, g.N(), taskgraph.MaxTasks)
		}
	}
}

// TestEdgeCapRefused: DOT and TGFF documents with more edges than the cap
// among fewer tasks than the cap are refused naming the edge cap, as is a
// DOT edge statement chaining more edges than the cap.
func TestEdgeCapRefused(t *testing.T) {
	const n = 400 // every pair i < j: 79 800 edges
	var dot, tgff, long strings.Builder
	dot.WriteString("digraph dense {")
	tgff.WriteString("@TASK_GRAPH 0 {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&tgff, "TASK t%d TYPE 0\n", i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			fmt.Fprintf(&dot, " t%d -> t%d;", i, j)
			fmt.Fprintf(&tgff, "ARC a%d_%d FROM t%d TO t%d TYPE 0\n", i, j, i, j)
		}
	}
	dot.WriteString(" }")
	tgff.WriteString("}\n")
	long.WriteString("digraph long { t0")
	for i := 1; i <= taskgraph.MaxEdges+1; i++ {
		fmt.Fprintf(&long, " -> t%d", i%2)
	}
	long.WriteString("; }")
	for _, tc := range []struct {
		format Format
		doc    string
	}{{FormatDOT, dot.String()}, {FormatTGFF, tgff.String()}, {FormatDOT, long.String()}} {
		_, err := ParseBytes(tc.format, []byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more edges than the cap of %d", taskgraph.MaxEdges)) {
			t.Errorf("%s: error %v, want one naming the edge cap", tc.format, err)
		}
	}
}
