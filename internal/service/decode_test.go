package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// decodeSubmitReference decodes a JSON envelope along decodeSubmit's
// general path, the one every envelope decodeOnePass declines takes:
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

// decodeOnePass is the one-pass path of an envelope the cache does not
// answer: decodeEnvelope's walk, then readGraph over the graph document.
// It returns nil when either declines.
func decodeOnePass(body []byte) (*submitRequest, *taskgraph.Graph) {
	req, doc := decodeEnvelope(body)
	if req == nil {
		return nil, nil
	}
	g := readGraph(doc)
	if g == nil {
		return nil, nil
	}
	return req, g
}

// envelopeMatchesReference is the one-pass path's oracle: the reference
// path accepts every body decodeOnePass takes, with an equal Format,
// Platform, Platforms, Options and Priority and a graph of the same name
// and canonical encoding. It reports whether decodeOnePass took body.
func envelopeMatchesReference(t *testing.T, body []byte) bool {
	t.Helper()
	req, g := decodeOnePass(body)
	if req == nil {
		return false
	}
	want, wantG, err := decodeSubmitReference(body)
	if err != nil {
		t.Fatalf("decodeOnePass took %q, which the reference path refuses: %v", body, err)
	}
	if req.Format != want.Format || !bytes.Equal(req.Platform, want.Platform) ||
		!reflect.DeepEqual(req.Platforms, want.Platforms) || !reflect.DeepEqual(req.Options, want.Options) ||
		req.Priority != want.Priority {
		t.Fatalf("decodeOnePass decoded %q as\n%+v\nthe reference path as\n%+v", body, req, want)
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
		t.Fatalf("decodeOnePass read the graph of %q as\n%s\nthe reference path as\n%s", body, got, wantDoc)
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
// decodeOnePass must decline, each for one of its rules.
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
			t.Errorf("%s: decodeOnePass declined %s", name, body)
		}
	}
}

// TestDecodeEnvelopeDeclines: an envelope outside the one-pass path's rules
// goes to the reference path, whatever that path then decides.
func TestDecodeEnvelopeDeclines(t *testing.T) {
	for _, body := range envelopeNearMisses {
		if req, _ := decodeOnePass([]byte(body)); req != nil {
			t.Errorf("decodeOnePass took %s", body)
		}
	}
}

// FuzzDecodeSubmitMatchesReference fuzzes decodeOnePass against the
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

// rawBodyReference is the document graphDocument handed the parser for a
// raw body when decodeRawBody JSON-quoted the body into the graph field
// and graphDocument unquoted it again.
func rawBodyReference(t *testing.T, body []byte) []byte {
	t.Helper()
	quoted, err := json.Marshal(string(body))
	if err != nil {
		t.Fatal(err)
	}
	var text string
	if err := json.Unmarshal(quoted, &text); err != nil {
		t.Fatal(err)
	}
	return []byte(text)
}

// FuzzRawBodyMatchesReference: a raw body reaches the parser as the JSON
// round trip left it, valid UTF-8 as sent and each invalid byte as U+FFFD.
func FuzzRawBodyMatchesReference(f *testing.F) {
	for _, body := range []string{
		"digraph g { a -> b; }",
		"digraph g { \"a\xe9\" -> b; }",
		"digraph g { \"a\xe9\xe8\" -> \"a\xe9\"; }",
		"digraph g { \"a\xe2\x82\" -> b; }",
		"digraph g { \"a\u2028\" -> b; }",
		"digraph g { \"<>&\" -> b; }",
		"digraph g { \"a\x00\" -> b; }",
	} {
		f.Add([]byte(body))
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs?format=dot", nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // readBody refuses an empty body
		}
		req, err := decodeRawBody(r, body)
		if err != nil {
			t.Fatal(err)
		}
		doc, _, err := req.graphDocument()
		if err != nil {
			t.Fatal(err)
		}
		if want := rawBodyReference(t, body); !bytes.Equal(doc, want) {
			t.Fatalf("raw body %q reached the parser as %q, the JSON round trip as %q", body, doc, want)
		}
	})
}

// TestRawBodyChainAllocation: a raw DOT body far over the task cap is
// refused without copying it through JSON. The 600 000-task chain (11.8
// MB) allocated 241 MB in the handler when the body took a JSON round
// trip, 123 MB of it in json.Marshal, which writes every > as \u003e.
func TestRawBodyChainAllocation(t *testing.T) {
	var chain bytes.Buffer
	chain.WriteString("digraph chain {")
	for i := 0; i < 600_000; i++ {
		fmt.Fprintf(&chain, " t%d -> t%d;", i, i+1)
	}
	chain.WriteString(" }")
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	h := s.Handler()
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs?format=dot&cores=2&levels=2", bytes.NewReader(chain.Bytes()))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, r)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), fmt.Sprintf("cap of %d", taskgraph.MaxTasks)) {
		t.Fatalf("status %d, want 400 naming the task cap: %s", rec.Code, rec.Body)
	}
	const limit = 80 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("refusing the %d-byte chain allocated %d MB, want at most %d MB", chain.Len(), alloc>>20, limit>>20)
	} else {
		t.Logf("refusing the %d-byte chain allocated %.1f MB", chain.Len(), float64(alloc)/(1<<20))
	}
}

// TestRawBodyQueryErrorOrder: with several malformed query parameters, the
// error names the first in decodeRawBody's fixed order on every decode.
func TestRawBodyQueryErrorOrder(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{"format=dot&cores=x&levels=y&seed=z", "cores"},
		{"format=dot&ser=x&deadline_sec=y", "ser"},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs?"+tc.query, nil)
		for i := 0; i < 100; i++ {
			_, err := decodeRawBody(r, []byte("digraph g { a -> b; }"))
			if err == nil || !strings.HasPrefix(err.Error(), "query param "+tc.want+"=") {
				t.Fatalf("?%s, decode %d: error %v, want one naming %s", tc.query, i, err, tc.want)
			}
		}
	}
}
