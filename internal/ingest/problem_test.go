package ingest

import (
	"strings"
	"testing"

	"seadopt/internal/arch"
	"seadopt/internal/faults"
	"seadopt/internal/taskgraph"
)

func testProblem(t testing.TB) *Problem {
	t.Helper()
	p, err := arch.NewPlatform(4, arch.ARM7Levels3())
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Graph:    taskgraph.MPEG2(),
		Platform: p,
		Options: Options{
			DeadlineSec:      taskgraph.MPEG2Deadline,
			StreamIterations: taskgraph.MPEG2Frames,
			Seed:             2010,
		},
	}
}

func TestProblemKeyStable(t *testing.T) {
	p := testProblem(t)
	k1, err := p.Key()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(k1, "sha256:") || len(k1) != len("sha256:")+64 {
		t.Fatalf("malformed key %q", k1)
	}
	k2, err := p.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("key not stable: %q vs %q", k1, k2)
	}
	// A structurally identical problem built from scratch hashes the same.
	k3, err := testProblem(t).Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Fatalf("independent identical problems differ: %q vs %q", k1, k3)
	}
}

func TestProblemKeySentinelNormalization(t *testing.T) {
	base := testProblem(t)
	k0, _ := base.Key()

	// SER 0 and the explicit paper default are the same problem.
	explicit := testProblem(t)
	explicit.Options.SER = faults.DefaultSER
	ke, _ := explicit.Key()
	if ke != k0 {
		t.Error("SER 0 and explicit DefaultSER should share a key")
	}
	// Every negative SER means "no soft errors".
	n1, n2 := testProblem(t), testProblem(t)
	n1.Options.SER, n2.Options.SER = -1, -42
	kn1, _ := n1.Key()
	kn2, _ := n2.Key()
	if kn1 != kn2 {
		t.Error("all negative SER values should share a key")
	}
	if kn1 == k0 {
		t.Error("zero-rate and default-rate problems must differ")
	}
	// StreamIterations 0 and 1 are both plain DAG semantics.
	i0, i1 := testProblem(t), testProblem(t)
	i0.Options.StreamIterations, i1.Options.StreamIterations = 0, 1
	ki0, _ := i0.Key()
	ki1, _ := i1.Key()
	if ki0 != ki1 {
		t.Error("StreamIterations 0 and 1 should share a key")
	}
}

func TestProblemKeyDiscriminates(t *testing.T) {
	keys := map[string]string{}
	add := func(name string, p *Problem) {
		k, err := p.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s and %s collide on %s", name, prev, k)
			}
		}
		keys[name] = k
	}
	add("base", testProblem(t))

	g := testProblem(t)
	g.Graph = taskgraph.Fig8()
	add("different graph", g)

	pl := testProblem(t)
	pl.Platform = arch.MustNewPlatform(6, arch.ARM7Levels3())
	add("different cores", pl)

	lv := testProblem(t)
	lv.Platform = arch.MustNewPlatform(4, arch.ARM7Levels2())
	add("different levels", lv)

	dl := testProblem(t)
	dl.Options.DeadlineSec = 1.0
	add("different deadline", dl)

	sd := testProblem(t)
	sd.Options.Seed = 7
	add("different seed", sd)

	bl := testProblem(t)
	bl.Options.Baseline = "regtime"
	add("baseline mapper", bl)

	mv := testProblem(t)
	mv.Options.SearchMoves = 1234
	add("search budget", mv)
}

func TestProblemKeyValidation(t *testing.T) {
	p := testProblem(t)
	p.Options.Baseline = "zigzag"
	if _, err := p.Key(); err == nil {
		t.Error("accepted unknown baseline")
	}
	p = testProblem(t)
	p.Graph = nil
	if _, err := p.Key(); err == nil {
		t.Error("accepted nil graph")
	}
	p = testProblem(t)
	p.Options.DeadlineSec = -3
	if _, err := p.Key(); err == nil {
		t.Error("accepted negative deadline")
	}
}
