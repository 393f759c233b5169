package ingest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"seadopt/internal/registers"
	"seadopt/internal/taskgraph"
)

// dotNode is one declared or referenced node of a DOT digraph.
type dotNode struct {
	id       string
	name     string // display name (label's first line, else the id)
	cycles   int64  // 0 = not specified
	regbits  int64  // 0 = not specified
	explicit bool   // appeared as an explicit node statement
}

// parseDOT parses a Graphviz digraph into a task graph. The supported
// subset is node statements, edge chains (a -> b -> c) and attribute lists;
// graph/node/edge default-attribute statements and top-level key=value
// assignments are ignored, and subgraphs are rejected. Computation cost
// comes from a node's `cycles` attribute or a "<n> cyc" label line
// (the form Graph.DOT renders), communication cost from an edge's `cycles`
// attribute or a numeric label. See the package comment for the defaults
// when neither is present.
//
// Tokens are scanned as the parser asks for them, and the parser refuses a
// digraph as soon as it has met more nodes or edges than a task graph may
// hold, so refusing an oversized document allocates no more than parsing
// a graph at the caps. A malformed token anywhere in the document is the
// error reported, ahead of anything the parser concluded.
func parseDOT(data []byte) (*taskgraph.Graph, error) {
	p := &dotParser{src: string(data)}
	g, err := p.parse()
	for p.scan() != "" {
		// Look for a malformed token in the rest of the document.
	}
	if p.err != nil {
		return nil, p.err
	}
	return g, err
}

func (p *dotParser) parse() (*taskgraph.Graph, error) {
	// Header: [strict] digraph [name] {
	if p.peek() == "strict" {
		p.next()
	}
	switch p.peek() {
	case "digraph":
		p.next()
	case "graph":
		return nil, fmt.Errorf("ingest: dot: undirected graphs are not task graphs; use digraph")
	default:
		return nil, fmt.Errorf("ingest: dot: expected 'digraph', got %q", p.peek())
	}
	graphName := "dot"
	if p.peek() != "{" {
		graphName = dotUnquote(p.next())
	}
	if tok := p.next(); tok != "{" {
		return nil, fmt.Errorf("ingest: dot: expected '{' after digraph header, got %q", tok)
	}

	var (
		order []string
		nodes = make(map[string]*dotNode)
	)
	type dotEdge struct {
		from, to string
		cycles   int64
	}
	var edges []dotEdge
	edgeSeen := make(map[[2]string]bool)

	touch := func(id string) *dotNode {
		n, ok := nodes[id]
		if !ok {
			n = &dotNode{id: id, name: dotUnquote(id)}
			nodes[id] = n
			order = append(order, id)
		}
		return n
	}

	for {
		// Refuse an oversized graph between statements; a statement adds
		// at most MaxEdges+1 nodes and edges (see the chain below).
		switch {
		case len(order) > taskgraph.MaxTasks:
			return nil, fmt.Errorf("ingest: dot: %w", overCap(graphName, "tasks", taskgraph.MaxTasks))
		case len(edges) > taskgraph.MaxEdges:
			return nil, fmt.Errorf("ingest: dot: %w", overCap(graphName, "edges", taskgraph.MaxEdges))
		}
		tok := p.peek()
		switch tok {
		case "":
			return nil, fmt.Errorf("ingest: dot: unexpected end of input (missing '}')")
		case "}":
			p.next()
			goto parsed
		case ";", ",":
			p.next()
			continue
		case "subgraph", "{":
			return nil, fmt.Errorf("ingest: dot: subgraphs are not supported; flatten the graph to plain node and edge statements")
		}
		id := p.next()
		// Top-level key=value (rankdir=TB etc.): skip.
		if p.peek() == "=" {
			p.next()
			if v := p.next(); v == "" {
				return nil, fmt.Errorf("ingest: dot: dangling '=' after %q", id)
			}
			continue
		}
		// graph/node/edge default-attribute statements: skip the list.
		lower := strings.ToLower(id)
		if (lower == "graph" || lower == "node" || lower == "edge") && p.peek() == "[" {
			if _, err := p.attrList(); err != nil {
				return nil, err
			}
			continue
		}
		// Node statement or edge chain.
		chain := []string{id}
		for p.peek() == "->" {
			p.next()
			nid := p.next()
			switch nid {
			case "", ";", "}", "[":
				return nil, fmt.Errorf("ingest: dot: edge from %q has no target node", chain[len(chain)-1])
			}
			if len(chain) > taskgraph.MaxEdges {
				return nil, fmt.Errorf("ingest: dot: %w", overCap(graphName, "edges", taskgraph.MaxEdges))
			}
			chain = append(chain, nid)
		}
		var attrs map[string]string
		if p.peek() == "[" {
			var err error
			if attrs, err = p.attrList(); err != nil {
				return nil, err
			}
		}
		if len(chain) == 1 {
			n := touch(id)
			if n.explicit && len(attrs) > 0 {
				return nil, fmt.Errorf("ingest: dot: duplicate node statement for %q; merge its attributes into one statement", dotUnquote(id))
			}
			if len(attrs) > 0 {
				n.explicit = true
			}
			if err := n.apply(attrs); err != nil {
				return nil, err
			}
			continue
		}
		cycles := int64(0)
		if v, ok := attrs["cycles"]; ok {
			c, err := strconv.ParseInt(dotUnquote(v), 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("ingest: dot: edge %s -> %s has bad cycles=%q (want a non-negative integer)",
					dotUnquote(chain[0]), dotUnquote(chain[1]), v)
			}
			cycles = c
		} else if v, ok := attrs["label"]; ok {
			if c, err := strconv.ParseInt(strings.TrimSpace(dotUnquote(v)), 10, 64); err == nil && c >= 0 {
				cycles = c
			}
		}
		for i := 0; i+1 < len(chain); i++ {
			from, to := chain[i], chain[i+1]
			touch(from)
			touch(to)
			key := [2]string{from, to}
			if edgeSeen[key] {
				return nil, fmt.Errorf("ingest: dot: duplicate edge %s -> %s", dotUnquote(from), dotUnquote(to))
			}
			edgeSeen[key] = true
			edges = append(edges, dotEdge{from: from, to: to, cycles: cycles})
		}
	}
parsed:
	if tok := p.peek(); tok != "" {
		return nil, fmt.Errorf("ingest: dot: trailing content %q after closing '}'", tok)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("ingest: dot: digraph %q declares no nodes", graphName)
	}

	inv := registers.NewInventory()
	b := taskgraph.NewBuilder(graphName, inv)
	ids := make(map[string]taskgraph.TaskID, len(order))
	seenNames := make(map[string]string, len(order))
	for _, id := range order {
		n := nodes[id]
		if prev, dup := seenNames[n.name]; dup {
			return nil, fmt.Errorf("ingest: dot: nodes %q and %q both resolve to task name %q", prev, n.id, n.name)
		}
		seenNames[n.name] = n.id
		cycles := n.cycles
		if cycles == 0 {
			cycles = DefaultComputeCycles
		}
		bits := n.regbits
		if bits == 0 {
			bits = DefaultRegisterBits
		}
		regID := "loc_" + n.name
		if err := inv.Add(regID, bits); err != nil {
			return nil, fmt.Errorf("ingest: dot node %q: %w", n.name, err)
		}
		ids[id] = b.AddTask(n.name, cycles, regID)
	}
	for _, e := range edges {
		b.AddEdge(ids[e.from], ids[e.to], e.cycles)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ingest: dot: %w", err)
	}
	return g, nil
}

// dotCycLabel matches the "<n> cyc" cost line Graph.DOT writes into labels.
var dotCycLabel = regexp.MustCompile(`^([0-9]+)\s*cyc$`)

// apply folds a node statement's attribute list into the node.
func (n *dotNode) apply(attrs map[string]string) error {
	if v, ok := attrs["label"]; ok {
		// Labels use literal \n (and \l/\r) separators; Graph.DOT writes
		// "Name\nN cyc".
		parts := strings.FieldsFunc(dotUnquote(v), func(r rune) bool { return r == '\n' })
		for _, sep := range []string{`\n`, `\l`, `\r`} {
			var next []string
			for _, p := range parts {
				next = append(next, strings.Split(p, sep)...)
			}
			parts = next
		}
		for i, part := range parts {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if m := dotCycLabel.FindStringSubmatch(part); m != nil {
				c, err := strconv.ParseInt(m[1], 10, 64)
				if err != nil {
					return fmt.Errorf("ingest: dot: node %q label cost %q overflows", n.id, part)
				}
				if n.cycles == 0 {
					n.cycles = c
				}
			} else if i == 0 {
				n.name = part
			}
		}
	}
	if v, ok := attrs["cycles"]; ok {
		c, err := strconv.ParseInt(dotUnquote(v), 10, 64)
		if err != nil || c <= 0 {
			return fmt.Errorf("ingest: dot: node %q has bad cycles=%q (want a positive integer)", n.id, v)
		}
		n.cycles = c
	}
	if v, ok := attrs["regbits"]; ok {
		c, err := strconv.ParseInt(dotUnquote(v), 10, 64)
		if err != nil || c <= 0 {
			return fmt.Errorf("ingest: dot: node %q has bad regbits=%q (want a positive integer)", n.id, v)
		}
		n.regbits = c
	}
	return nil
}

// dotParser scans and parses DOT source. It scans one token ahead of the
// parser: peek scans the next token, next consumes it.
type dotParser struct {
	src     string
	pos     int    // the first byte of src not yet scanned
	tok     string // the scanned, unconsumed token ("" at the end)
	scanned bool   // tok holds the next token
	err     error  // the first malformed token; the input ends there
}

func (p *dotParser) peek() string {
	if !p.scanned {
		p.tok, p.scanned = p.scan(), true
	}
	return p.tok
}

func (p *dotParser) next() string {
	t := p.peek()
	p.scanned = false
	return t
}

// attrList parses "[ k=v, k=v, ... ]" (the leading '[' is still pending).
func (p *dotParser) attrList() (map[string]string, error) {
	if tok := p.next(); tok != "[" {
		return nil, fmt.Errorf("ingest: dot: expected '[', got %q", tok)
	}
	attrs := make(map[string]string)
	for {
		tok := p.next()
		switch tok {
		case "]":
			return attrs, nil
		case ",", ";":
			continue
		case "":
			return nil, fmt.Errorf("ingest: dot: unterminated attribute list")
		}
		key := strings.ToLower(dotUnquote(tok))
		if eq := p.next(); eq != "=" {
			return nil, fmt.Errorf("ingest: dot: attribute %q is missing '=' (got %q)", key, eq)
		}
		val := p.next()
		if val == "" || val == "]" || val == "," {
			return nil, fmt.Errorf("ingest: dot: attribute %q has no value", key)
		}
		attrs[key] = val
	}
}

// scan returns the next token of the source: an identifier, a quoted
// string (kept quoted so consumers can distinguish them) or punctuation,
// skipping whitespace and //, /* */ and # comments. It returns "" at the
// end of the input, and from a malformed token on, whose error it records.
func (p *dotParser) scan() string {
	src := p.src
	for p.err == nil && p.pos < len(src) {
		i := p.pos
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.pos++
		case c == '#':
			for p.pos < len(src) && src[p.pos] != '\n' {
				p.pos++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for p.pos < len(src) && src[p.pos] != '\n' {
				p.pos++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				p.err = fmt.Errorf("ingest: dot: unterminated /* comment")
				return ""
			}
			p.pos = i + 2 + end + 2
		case c == '"':
			j := i + 1
			for j < len(src) {
				if src[j] == '\\' && j+1 < len(src) {
					j += 2
					continue
				}
				if src[j] == '"' {
					break
				}
				j++
			}
			if j >= len(src) {
				p.err = fmt.Errorf("ingest: dot: unterminated string literal")
				return ""
			}
			p.pos = j + 1
			return src[i : j+1]
		case c == '-' && i+1 < len(src) && src[i+1] == '>':
			p.pos += 2
			return "->"
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			p.err = fmt.Errorf("ingest: dot: undirected edge '--' is not a task dependency; use '->'")
			return ""
		case strings.ContainsRune("{}[]=;,", rune(c)):
			p.pos++
			return src[i : i+1]
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\r\n{}[]=;,\"#", rune(src[j])) &&
				!(src[j] == '-' && j+1 < len(src) && (src[j+1] == '>' || src[j+1] == '-')) &&
				!(src[j] == '/' && j+1 < len(src) && (src[j+1] == '/' || src[j+1] == '*')) {
				j++
			}
			if j == i {
				p.err = fmt.Errorf("ingest: dot: unexpected character %q", c)
				return ""
			}
			p.pos = j
			return src[i:j]
		}
	}
	return ""
}

// dotUnquote strips the quotes of a quoted token and resolves \" and \\
// escapes; bare identifiers pass through.
func dotUnquote(tok string) string {
	if len(tok) < 2 || tok[0] != '"' {
		return tok
	}
	body := tok[1 : len(tok)-1]
	var sb strings.Builder
	for i := 0; i < len(body); i++ {
		if body[i] == '\\' && i+1 < len(body) && (body[i+1] == '"' || body[i+1] == '\\') {
			i++
		}
		sb.WriteByte(body[i])
	}
	return sb.String()
}
