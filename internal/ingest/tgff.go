package ingest

import (
	"fmt"
	"strconv"
	"strings"

	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// tgffTask and tgffArc are the raw statements of a @TASK_GRAPH block.
type tgffTask struct {
	name string
	typ  int
	line int
}

type tgffArc struct {
	name     string
	from, to string
	typ      int
	line     int
}

// parseTGFF parses the task-graph subset of the TGFF generator's output
// format: exactly one @TASK_GRAPH block (TASK/ARC statements; PERIOD and
// other scalar attributes are ignored — deadlines arrive with the job, not
// the graph), plus the optional @WCET/@COMMUN/@REGISTERS two-column
// attribute tables mapping a TYPE to cycles / cycles / bits. Unknown
// sections (@PE, @HYPERPERIOD, ...) are skipped whole. Lines are read in
// place, and a block with more TASK or ARC statements than a task graph
// may hold is refused at the first one over the cap.
func parseTGFF(data []byte) (*taskgraph.Graph, error) {
	var (
		tasks      []tgffTask
		arcs       []tgffArc
		graphName  string
		graphCount int

		wcet, commun, regbits map[int]int64
	)

	section := ""   // active @SECTION name, "" outside
	inBody := false // seen the section's '{'
	tables := map[string]*map[int]int64{
		"WCET":          &wcet,
		"COMPUTATION":   &wcet,
		"COMMUN":        &commun,
		"COMMUNICATION": &commun,
		"REGISTERS":     &regbits,
		"REGS":          &regbits,
	}
	var activeTable *map[int]int64

	rest := string(data)
	for lineNo := 1; rest != ""; lineNo++ {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, "@") {
			if section != "" {
				return nil, fmt.Errorf("ingest: tgff line %d: section @%s not closed before new section", lineNo, section)
			}
			fields := strings.Fields(strings.TrimSuffix(line, "{"))
			section = strings.TrimPrefix(fields[0], "@")
			inBody = strings.HasSuffix(line, "{")
			activeTable = nil
			if t, ok := tables[section]; ok {
				if *t == nil {
					*t = make(map[int]int64)
				}
				activeTable = t
			}
			if section == "TASK_GRAPH" {
				graphCount++
				if graphCount > 1 {
					return nil, fmt.Errorf("ingest: tgff line %d: file contains more than one @TASK_GRAPH block; submit one graph per job", lineNo)
				}
				graphName = "tgff"
				if len(fields) > 1 {
					graphName = "tgff-" + fields[1]
				}
			}
			continue
		}
		if line == "{" {
			if section == "" {
				return nil, fmt.Errorf("ingest: tgff line %d: '{' outside any @section", lineNo)
			}
			inBody = true
			continue
		}
		if line == "}" {
			if section == "" {
				return nil, fmt.Errorf("ingest: tgff line %d: '}' outside any @section", lineNo)
			}
			section, inBody, activeTable = "", false, nil
			continue
		}
		if section == "" || !inBody {
			return nil, fmt.Errorf("ingest: tgff line %d: statement %q outside a section body", lineNo, line)
		}

		switch {
		case section == "TASK_GRAPH":
			fields := strings.Fields(line)
			switch fields[0] {
			case "TASK":
				// TASK <name> TYPE <n>
				name, typ, err := tgffNameType(fields[1:], "TASK")
				if err != nil {
					return nil, fmt.Errorf("ingest: tgff line %d: %w", lineNo, err)
				}
				if len(tasks) == taskgraph.MaxTasks {
					return nil, fmt.Errorf("ingest: tgff line %d: %w", lineNo, overCap(graphName, "tasks", taskgraph.MaxTasks))
				}
				tasks = append(tasks, tgffTask{name: name, typ: typ, line: lineNo})
			case "ARC":
				// ARC <name> FROM <task> TO <task> TYPE <n>
				arc, err := tgffArcStmt(fields[1:])
				if err != nil {
					return nil, fmt.Errorf("ingest: tgff line %d: %w", lineNo, err)
				}
				if len(arcs) == taskgraph.MaxEdges {
					return nil, fmt.Errorf("ingest: tgff line %d: %w", lineNo, overCap(graphName, "edges", taskgraph.MaxEdges))
				}
				arc.line = lineNo
				arcs = append(arcs, arc)
			default:
				// PERIOD, HARD_DEADLINE, SOFT_DEADLINE, ... — scalar graph
				// attributes the optimizer takes from the job instead.
			}
		case activeTable != nil:
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("ingest: tgff line %d: @%s table row %q: want exactly 2 columns (TYPE VALUE)", lineNo, section, line)
			}
			typ, err := strconv.Atoi(fields[0])
			if err != nil || typ < 0 {
				return nil, fmt.Errorf("ingest: tgff line %d: @%s table row %q: bad TYPE %q", lineNo, section, line, fields[0])
			}
			val, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || val <= 0 {
				return nil, fmt.Errorf("ingest: tgff line %d: @%s table row %q: bad value %q (want a positive number)", lineNo, section, line, fields[1])
			}
			(*activeTable)[typ] = int64(val)
		default:
			// Row of an unknown section (@PE cost tables etc.) — skip.
		}
	}
	if section != "" {
		return nil, fmt.Errorf("ingest: tgff: section @%s is never closed", section)
	}
	if graphCount == 0 {
		return nil, fmt.Errorf("ingest: tgff: no @TASK_GRAPH block found")
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("ingest: tgff: @TASK_GRAPH declares no TASK statements")
	}

	// Resolve statements into a graph. One private register per task, sized
	// by the @REGISTERS table or the type-scaled default.
	inv := registers.NewInventory()
	byName := make(map[string]taskgraph.TaskID, len(tasks))
	for _, t := range tasks {
		if _, dup := byName[t.name]; dup {
			return nil, fmt.Errorf("ingest: tgff line %d: duplicate TASK name %q", t.line, t.name)
		}
		byName[t.name] = taskgraph.TaskID(len(byName))
	}
	b := taskgraph.NewBuilder(graphName, inv)
	for _, t := range tasks {
		bits, err := tgffLookup(regbits, t.typ, "REGISTERS", t.name)
		if err != nil {
			return nil, err
		}
		if bits == 0 {
			bits = 1024 * (1 + int64(t.typ)%5)
		}
		regID := "loc_" + t.name
		if err := inv.Add(regID, bits); err != nil {
			return nil, fmt.Errorf("ingest: tgff task %q: %w", t.name, err)
		}
		cycles, err := tgffLookup(wcet, t.typ, "WCET", t.name)
		if err != nil {
			return nil, err
		}
		if cycles == 0 {
			cycles = int64(t.typ+1) * DefaultComputeCycles
		}
		b.AddTask(t.name, cycles, regID)
	}
	seen := make(map[[2]string]string, len(arcs))
	for _, a := range arcs {
		from, ok := byName[a.from]
		if !ok {
			return nil, fmt.Errorf("ingest: tgff line %d: ARC %s references undefined task %q", a.line, a.name, a.from)
		}
		to, ok := byName[a.to]
		if !ok {
			return nil, fmt.Errorf("ingest: tgff line %d: ARC %s references undefined task %q", a.line, a.name, a.to)
		}
		key := [2]string{a.from, a.to}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("ingest: tgff line %d: ARC %s duplicates ARC %s (%s -> %s)", a.line, a.name, prev, a.from, a.to)
		}
		seen[key] = a.name
		cycles, err := tgffLookup(commun, a.typ, "COMMUN", a.name)
		if err != nil {
			return nil, err
		}
		if cycles == 0 {
			cycles = int64(a.typ+1) * DefaultCommCycles
		}
		b.AddEdge(from, to, cycles)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ingest: tgff: %w", err)
	}
	return g, nil
}

// tgffLookup resolves a TYPE against an optional attribute table: a missing
// table means "use the defaults" (returns 0), but a table that exists and
// lacks the type is a user error worth naming.
func tgffLookup(table map[int]int64, typ int, tableName, element string) (int64, error) {
	if table == nil {
		return 0, nil
	}
	v, ok := table[typ]
	if !ok {
		return 0, fmt.Errorf("ingest: tgff: @%s table has no entry for TYPE %d used by %q", tableName, typ, element)
	}
	return v, nil
}

// tgffNameType parses "<name> TYPE <n>".
func tgffNameType(fields []string, stmt string) (string, int, error) {
	if len(fields) != 3 || fields[1] != "TYPE" {
		return "", 0, fmt.Errorf("malformed %s statement (want %s <name> TYPE <n>)", stmt, stmt)
	}
	typ, err := strconv.Atoi(fields[2])
	if err != nil || typ < 0 {
		return "", 0, fmt.Errorf("%s %q has bad TYPE %q (want a non-negative integer)", stmt, fields[0], fields[2])
	}
	return fields[0], typ, nil
}

// tgffArcStmt parses "<name> FROM <task> TO <task> TYPE <n>".
func tgffArcStmt(fields []string) (tgffArc, error) {
	if len(fields) != 7 || fields[1] != "FROM" || fields[3] != "TO" || fields[5] != "TYPE" {
		return tgffArc{}, fmt.Errorf("malformed ARC statement (want ARC <name> FROM <task> TO <task> TYPE <n>)")
	}
	typ, err := strconv.Atoi(fields[6])
	if err != nil || typ < 0 {
		return tgffArc{}, fmt.Errorf("ARC %q has bad TYPE %q (want a non-negative integer)", fields[0], fields[6])
	}
	return tgffArc{name: fields[0], from: fields[2], to: fields[4], typ: typ}, nil
}
