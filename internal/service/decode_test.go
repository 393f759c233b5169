package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// decodeSubmitReference decodes a JSON envelope along decodeSubmit's
// general path, the one every envelope decodeEnvelope declines takes:
// encoding/json copies the graph out, and ingest.ParseBytes parses the
// copy.
func decodeSubmitReference(body []byte) (*submitRequest, *taskgraph.Graph, error) {
	req := new(submitRequest)
	if err := ingest.DecodeStrict(body, req); err != nil {
		return nil, nil, err
	}
	if len(req.Graph) == 0 {
		return nil, nil, errors.New("job envelope is missing the graph field")
	}
	doc, format, err := req.graphDocument()
	if err != nil {
		return nil, nil, err
	}
	g, err := ingest.ParseBytes(format, doc)
	if err != nil {
		return nil, nil, err
	}
	return req, g, nil
}

// envelopeMatchesReference is decodeEnvelope's oracle: the reference path
// accepts every body decodeEnvelope takes, with an equal Format, Platform,
// Platforms, Options and Priority and a graph of the same name and
// canonical encoding. It reports whether decodeEnvelope took body.
func envelopeMatchesReference(t *testing.T, body []byte) bool {
	t.Helper()
	req, g := decodeEnvelope(body)
	if req == nil {
		return false
	}
	want, wantG, err := decodeSubmitReference(body)
	if err != nil {
		t.Fatalf("decodeEnvelope took %q, which the reference path refuses: %v", body, err)
	}
	if req.Format != want.Format || !bytes.Equal(req.Platform, want.Platform) ||
		!reflect.DeepEqual(req.Platforms, want.Platforms) || !reflect.DeepEqual(req.Options, want.Options) ||
		req.Priority != want.Priority {
		t.Fatalf("decodeEnvelope decoded %q as\n%+v\nthe reference path as\n%+v", body, req, want)
	}
	got, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, err := wantG.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != wantG.Name() || !bytes.Equal(got, wantDoc) {
		t.Fatalf("decodeEnvelope read the graph of %q as\n%s\nthe reference path as\n%s", body, got, wantDoc)
	}
	return true
}

// jqEnvelope is the README walkthrough's MPEG-2 envelope as `jq -n`
// prints it: indented by two spaces, a space after every colon.
func jqEnvelope(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, mpeg2Envelope(t), "", "  "); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), '\n')
}

// envelopeNearMisses are envelopes around oneTask's graph that
// decodeEnvelope must decline, each for one of its rules.
var envelopeNearMisses = []string{
	`{"Graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`,
	`{"graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},"Graph":{}}`,
	`{"graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},"graph":{}}`,
	`{"format":"json","graph":"{\"name\":\"g\",\"registers\":[],\"tasks\":[{\"name\":\"a\",\"cycles\":1,\"registers\":[]}],\"edges\":[]}"}`,
	`{"format":"dot","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`,
	`{"format":"JSON","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`,
	`{"graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},"priority":+1}`,
	`{"graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]},"nope":1}`,
	`{"graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]},{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`,
	`{"graph":{"name":"g","registers":[],"tasks":[],"edges":[]}}`,
	`{"graph":null}`,
	`{"gr\u0061ph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}`,
	`{"format":"json","graph":{"name":"g","registers":[],"tasks":[{"name":"a","cycles":1,"registers":[]}],"edges":[]}}}`,
}

// TestDecodeEnvelopeTakesTraffic: the one-pass path takes the envelopes
// the service's clients send — the bench's service workloads (marshaled
// by encoding/json) and the README walkthroughs (printed by jq) — and
// decodes them as the reference path does.
func TestDecodeEnvelopeTakesTraffic(t *testing.T) {
	permuted := `{"priority":2,"options":{"seed":7},"platform":{"levels":2,"cores":3},` +
		`"graph":{"edges":[],"tasks":[{"registers":[],"cycles":1,"name":"a"}],"registers":[],"name":"g"},"format":"auto"}`
	for name, body := range map[string][]byte{
		"bench":        hotEnvelope(t),
		"walkthrough":  mpeg2Envelope(t),
		"jq":           jqEnvelope(t),
		"permuted":     []byte(permuted),
		"one task":     []byte(oneTask),
		"no format":    []byte(strings.Replace(oneTask, `"format":"json",`, "", 1)),
		"trailing ws":  []byte(oneTask + "\n"),
		"leading ws":   []byte(" \t\n" + oneTask),
		"extra fields": []byte(strings.Replace(oneTask, `{"format":"json"`, `{"FORMAT":"json","options":{"mode":"pareto","sweep_deadlines":null},"platforms":[]`, 1)),
	} {
		if !envelopeMatchesReference(t, body) {
			t.Errorf("%s: decodeEnvelope declined %s", name, body)
		}
	}
}

// TestDecodeEnvelopeDeclines: an envelope outside the one-pass path's rules
// goes to the reference path, whatever that path then decides.
func TestDecodeEnvelopeDeclines(t *testing.T) {
	for _, body := range envelopeNearMisses {
		if req, _ := decodeEnvelope([]byte(body)); req != nil {
			t.Errorf("decodeEnvelope took %s", body)
		}
	}
}

// FuzzDecodeSubmitMatchesReference fuzzes decodeEnvelope against the
// reference path: every envelope it takes decodes as the reference path
// decodes it.
func FuzzDecodeSubmitMatchesReference(f *testing.F) {
	f.Add(hotEnvelope(f))
	f.Add(mpeg2Envelope(f))
	f.Add(jqEnvelope(f))
	for _, tc := range httpValidationCases {
		f.Add([]byte(tc.body))
	}
	for _, body := range envelopeNearMisses {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		envelopeMatchesReference(t, body)
	})
}
