package seadopt

// The reachability floor: every non-test function of the module must be
// linked into some binary, or be named in reachAllowlist with the reason a
// test needs it. The roots are every cmd/* and examples/* main, the bench/
// module's binary, and a generated program that references every exported
// function and method declared in this package. All of them are built with
// inlining off (-gcflags=all=-l), so that a called function keeps its own
// symbol, and the `go tool nm` text symbols under seadopt are the linked
// set. No root links text/template or reflect's MethodByName, so the
// linker's dead-code elimination keeps a method only when it is called or
// its type reaches an interface whose method set has that signature: the
// scan can miss dead code, and it never flags live code.
//
// Run it with
//
//	go test -run '^TestReachability$' .
//
// A function that only tests call either goes (with the tests that test
// nothing else), moves into its package's _test.go files, or is named
// below with the tests that use it and why they need it.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions that no binary links and that tests
// keep on purpose, keyed as the scan prints them: the package path within
// the module, then the function as the linker names it, with (*T) for a
// pointer receiver and no type parameters.
var reachAllowlist = map[string]string{
	"internal/arch.(*Interconnect).PathLinks": "the reference XY/bus route as a link list: " +
		"TestRouteMatchesPathLinks and ingest's FuzzParsePlatformSpec hold the route table " +
		"Reserve walks to it, and sched's token-per-edge reference (transferArrival) walks it",
	"internal/arch.(*Routes).Links": "observer: lists a route-table entry's links for " +
		"TestRouteMatchesPathLinks and ingest's FuzzParsePlatformSpec to compare with PathLinks",
	"internal/arch.(*Interconnect).TransferSeconds": "the uncontended transfer time that " +
		"sched.(*Schedule).Validate takes as its precedence floor; TestInterconnectTiming pins it",
	"internal/arch.(*Platform).Homogeneous": "observer: TestHeterogeneousPlatform, " +
		"TestHeterogeneousValidation, ingest's TestParsePlatformSpec and the root " +
		"TestParsePlatformSpecFacade check how many DVS table classes a spec built",
	"internal/arch.(*Platform).MinPowerScaling": "the all-slowest start of the Fig. 5(a) walk: " +
		"TestPlatformAccessors and TestHeterogeneousPlatform pin it, and metrics' " +
		"TestEvaluateDeltaRequiresEvaluate and the root BenchmarkEvaluateDelta* step from it",
	"internal/arch.(*Platform).TypeName": "observer: ingest's TestParsePlatformSpec reads the " +
		"processor-type name a spec gave each core",
	"internal/arch.MustNewPlatform": "fixture constructor of the test platforms of the root, " +
		"anneal, arch, ingest, mapping, metrics, sched, service, sim, trace and vscale tests",
	"internal/registers.(*Inventory).SharedBits": "register-sharing oracle: TestSetBitsAndSharedBits, " +
		"and taskgraph's TestMPEG2MatchesPaper and TestRandomEdgesCreateSharedBuffers check " +
		"the buffers generated graphs share with it",
	"internal/registers.(*Liveness).Exposure": "bit·cycle exposure: sim's " +
		"TestLivenessLifetimeTighter compares the exposure modes by it, and " +
		"TestLivenessExposure pins it",
	"internal/registers.Intersect": "set intersection for TestSetOperations, " +
		"TestUnionIntersectInclusionExclusion and taskgraph's TestMPEG2MatchesPaper",
	"internal/registers.Set.Equal": "set equality for TestSetOperations and taskgraph's " +
		"graph and random-graph tests",
	"internal/registers.Set.Has": "membership under Set.Equal, Intersect and " +
		"(*Inventory).SharedBits; TestSetOperations pins it",
	"internal/sched.(*Schedule).Validate": "oracle: the executable statement of the timing and " +
		"eq. (7) billing model, kept beside the scheduler whose schedules sched's TestValidate* " +
		"and fabric tests check with it",
	"internal/sched.ListSchedule": "the one-shot list schedule that sched's tests, sim's " +
		"TestSimMatchesListSchedule*, mapping's TestInitialSEAMappingFig8 and the root " +
		"BenchmarkListSchedule* build reference schedules with",
	"internal/sched.Mapping.UsedCores": "observer: TestMappingHelpers and mapping's " +
		"TestInitialSEAMapping* count the cores a mapping occupies",
	"internal/sched.Mapping.UsesAllCores": "the Fig. 6 architecture-allocation premise that " +
		"search's TestNeighborInvariants and mapping's TestExhaustiveUsesAllCores check",
	"internal/sched.RandomMapping": "random mappings for the property tests of sched " +
		"(TestScheduleMatchesTokenAgenda), metrics, sim and mapping",
	"internal/service.LintMetrics": "the strict Prometheus exposition parser that seadoptd's " +
		"scrapeMetrics and service's TestHTTPMetricsLint, TestRenderMetricsLints and the other " +
		"/metrics tests run every scrape through",
	"internal/service.isInf":       "helper of LintMetrics",
	"internal/service.parseLE":     "helper of LintMetrics",
	"internal/service.splitLabels": "helper of LintMetrics",
	"internal/service.splitSample": "helper of LintMetrics",
	"internal/taskgraph.(*Graph).EdgeCost": "observer: TestBuilderBasics and ingest's DOT and " +
		"TGFF tests read the communication cost an edge was given",
}

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module with inlining off")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("building the roots needs the go command: %v", err)
	}
	out := t.TempDir()

	fset := token.NewFileSet()
	pkgs := reachPackages(t, goTool, root, fset)
	var mains []string
	for _, p := range pkgs {
		if p.name == "main" {
			mains = append(mains, p.path)
		}
	}
	sort.Strings(mains)

	// Every main of the module lands in out/bin as its last path element.
	bin := filepath.Join(out, "bin")
	if err := os.Mkdir(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	runGo(t, goTool, root, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	runGo(t, goTool, filepath.Join(root, "bench"), "build", "-gcflags=all=-l", "-o", filepath.Join(out, "benchbin"), ".")
	api := writeAPIProgram(t, root, pkgs, filepath.Join(out, "api"))
	runGo(t, goTool, api, "build", "-gcflags=all=-l", "-o", filepath.Join(out, "apibin"), ".")

	// linked holds every seadopt text symbol of every root; a main
	// package's symbols count only in its own binary.
	linked := make(map[string]bool)
	for _, b := range []string{filepath.Join(out, "benchbin"), filepath.Join(out, "apibin")} {
		for s := range textSymbols(t, goTool, b) {
			if !strings.HasPrefix(s, "main.") {
				linked[s] = true
			}
		}
	}
	for _, m := range mains {
		for s := range textSymbols(t, goTool, filepath.Join(bin, filepath.Base(m))) {
			if rest, ok := strings.CutPrefix(s, "main."); ok {
				s = m + "." + rest
			}
			linked[s] = true
		}
	}

	found := make(map[string]bool)
	var unlinked []string
	for _, p := range pkgs {
		for _, fn := range p.funcs {
			if fn.Name.Name == "init" {
				continue
			}
			names := symbolNames(p.path, fn)
			key := strings.TrimPrefix(names[0], "seadopt/")
			found[key] = true
			live := false
			for _, n := range names {
				live = live || linked[n]
			}
			_, allowed := reachAllowlist[key]
			switch {
			case live && allowed:
				t.Errorf("%s is linked now: remove it from reachAllowlist", key)
			case !live && !allowed:
				unlinked = append(unlinked, fmt.Sprintf("%s (%s)", key, fset.Position(fn.Pos())))
			}
		}
	}
	for key := range reachAllowlist {
		if !found[key] {
			t.Errorf("reachAllowlist names %s, which no longer exists", key)
		}
	}
	if len(unlinked) > 0 {
		sort.Strings(unlinked)
		t.Errorf("no binary links these %d functions; delete them, move them into _test.go files, or allowlist them:\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
}

// reachPackage is one package of the module, with the top-level functions
// of its non-test files.
type reachPackage struct {
	path, name string
	funcs      []*ast.FuncDecl
}

func reachPackages(t *testing.T, goTool, root string, fset *token.FileSet) []reachPackage {
	t.Helper()
	out := runGo(t, goTool, root, "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	var pkgs []reachPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		p := reachPackage{path: f[0], name: f[1]}
		for _, name := range strings.Fields(f[3]) {
			file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					p.funcs = append(p.funcs, fn)
				}
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// receiver returns the name of a method's receiver type, without type
// parameters, and whether the receiver is a pointer.
func receiver(fn *ast.FuncDecl) (name string, ptr, generic bool) {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ, generic = x.X, true
	case *ast.IndexListExpr:
		typ, generic = x.X, true
	}
	return typ.(*ast.Ident).Name, ptr, generic
}

// symbolNames returns the linker names fn may appear under: a value
// receiver's method may be linked only through its (*T) wrapper.
func symbolNames(pkg string, fn *ast.FuncDecl) []string {
	if fn.Recv == nil {
		return []string{pkg + "." + fn.Name.Name}
	}
	recv, ptr, _ := receiver(fn)
	viaPtr := pkg + ".(*" + recv + ")." + fn.Name.Name
	if ptr {
		return []string{viaPtr}
	}
	return []string{pkg + "." + recv + "." + fn.Name.Name, viaPtr}
}

// writeAPIProgram writes a main module that references every exported
// function and method declared in the root package, and returns its
// directory.
func writeAPIProgram(t *testing.T, root string, pkgs []reachPackage, dir string) string {
	t.Helper()
	var src bytes.Buffer
	src.WriteString("package main\n\nimport \"seadopt\"\n\nvar api = []any{\n")
	for _, p := range pkgs {
		if p.path != "seadopt" {
			continue
		}
		for _, fn := range p.funcs {
			if !fn.Name.IsExported() {
				continue
			}
			if fn.Type.TypeParams != nil {
				t.Fatalf("%s: a generic function needs an instantiation in the API program", fn.Name.Name)
			}
			if fn.Recv == nil {
				fmt.Fprintf(&src, "\tseadopt.%s,\n", fn.Name.Name)
				continue
			}
			recv, ptr, generic := receiver(fn)
			switch {
			case generic:
				t.Fatalf("%s.%s: a method of a generic type needs an instantiation in the API program", recv, fn.Name.Name)
			case !ast.IsExported(recv):
				// Reachable from outside only through an interface.
			case ptr:
				fmt.Fprintf(&src, "\t(*seadopt.%s).%s,\n", recv, fn.Name.Name)
			default:
				fmt.Fprintf(&src, "\tseadopt.%s.%s,\n", recv, fn.Name.Name)
			}
		}
	}
	src.WriteString("}\n\nfunc main() { println(len(api)) }\n")
	mod := fmt.Sprintf("module reachapi\n\ngo 1.24\n\nrequire seadopt v0.0.0\n\nreplace seadopt => %s\n", root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"go.mod": []byte(mod), "main.go": src.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// textSymbols returns the seadopt and main text symbols of binary, with
// the type arguments of generic instantiations stripped.
func textSymbols(t *testing.T, goTool, binary string) map[string]bool {
	t.Helper()
	out := runGo(t, goTool, "", "tool", "nm", binary)
	syms := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  addr T name"; a name may contain spaces.
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		name := stripTypeArgs(fields[2])
		if strings.HasPrefix(name, "seadopt.") || strings.HasPrefix(name, "seadopt/") || strings.HasPrefix(name, "main.") {
			syms[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return syms
}

// stripTypeArgs removes every balanced [...] group from a symbol name.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func runGo(t *testing.T, goTool, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(goTool, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}
