package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"seadopt/internal/arch"
	"seadopt/internal/ingest"
	"seadopt/internal/taskgraph"
)

// newStoreServer boots a Server with the durable store rooted at dir.
func newStoreServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.StoreDir = dir
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s
}

// TestStoreRecoversFinishedJobs: a daemon restarted against the same store
// directory still knows every finished job — same ID, same state, same
// result bytes — serves identical resubmissions from the recovered cache
// without re-running the engine, and continues the job ID sequence instead
// of reissuing recovered IDs.
func TestStoreRecoversFinishedJobs(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir, Config{Workers: 1})
	st, err := s1.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s1, st.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s2.Job(st.ID)
	if err != nil {
		t.Fatalf("recovered server lost job %s: %v", st.ID, err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered job state %s, want done", got.State)
	}
	if !bytes.Equal(got.Result, final.Result) {
		t.Fatalf("recovered result bytes differ:\n%s\nvs\n%s", got.Result, final.Result)
	}
	if got.Summary != final.Summary || got.Total != final.Total {
		t.Fatalf("recovered summary/total %q/%d, want %q/%d",
			got.Summary, got.Total, final.Summary, final.Total)
	}

	// An identical resubmission is a cache hit off the recovered journal.
	again, err := s2.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateDone {
		t.Fatalf("resubmission after recovery: state %s, cacheHit %v", again.State, again.CacheHit)
	}
	if !bytes.Equal(again.Result, final.Result) {
		t.Fatal("resubmission after recovery returned different bytes")
	}
	if again.ID == st.ID {
		t.Fatalf("resubmission reused recovered job ID %s", st.ID)
	}
	if execs := s2.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("recovered server ran the engine %d times for known results", execs)
	}

	// The scalar warm-start hint journaled by the first run survives too.
	p := mpeg2Problem(t, 2010)
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if hints := s2.warm.Hints(warmScalarKey(fp, p.Options)); len(hints) == 0 {
		t.Fatal("warm-start hints did not survive the restart")
	}

	// The hit was journaled by key: a done record without its problem.
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	hitRec := journalRecord(t, dir, again.ID)
	if hitRec.State != StateDone || len(hitRec.Problem) != 0 || hitRec.Key != again.Key {
		t.Fatalf("cache hit journaled as state %q, key %s, %d problem bytes; want done by key %s",
			hitRec.State, hitRec.Key, len(hitRec.Problem), again.Key)
	}

	// A second restart serves the by-key hit from the key's result record.
	s3 := newStoreServer(t, dir, Config{Workers: 1})
	hit, err := s3.Job(again.ID)
	if err != nil {
		t.Fatalf("second recovery lost the cache-hit job %s: %v", again.ID, err)
	}
	if hit.State != StateDone || !hit.CacheHit || !bytes.Equal(hit.Result, final.Result) {
		t.Fatalf("by-key hit recovered as %s (cache hit %v, bytes equal %v)",
			hit.State, hit.CacheHit, bytes.Equal(hit.Result, final.Result))
	}
	if hit.Summary != final.Summary || hit.Total != final.Total {
		t.Fatalf("by-key hit recovered summary/total %q/%d, want %q/%d",
			hit.Summary, hit.Total, final.Summary, final.Total)
	}
	if execs := s3.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("second recovery ran the engine %d times", execs)
	}
	next, err := s3.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "j-000003"; again.ID != "j-000002" || next.ID != want {
		t.Fatalf("IDs %s then %s after the hit's recovery, want j-000002 then %s", again.ID, next.ID, want)
	}
}

// journalRecord returns the job record the journal under dir holds for id.
func journalRecord(t *testing.T, dir, id string) storeRecord {
	t.Helper()
	recs, err := replayJournal(filepath.Join(dir, storeJournalName))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == "job" && rec.ID == id {
			return rec
		}
	}
	t.Fatalf("journal holds no job record for %s", id)
	return storeRecord{}
}

// writeJournal appends recs to a fresh journal under dir.
func writeJournal(t *testing.T, dir string, recs ...storeRecord) {
	t.Helper()
	store, _, err := openJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreJournalsHitProblemWithoutResultRecord: a hit on a cache entry
// whose done result never reached the journal (its append failed, or every
// job of its flight was canceled) still journals its problem, so a restart
// whose journal lacks that result re-runs the hit to the same bytes.
func TestStoreJournalsHitProblemWithoutResultRecord(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreServer(t, dir, Config{Workers: 1})
	first, err := s1.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s1, first.ID, StateDone)
	// Make the entry one whose result record was never appended.
	s1.mu.Lock()
	e, ok := s1.cache.Get(first.Key)
	if !ok || !e.journaled {
		s1.mu.Unlock()
		t.Fatalf("finished result cached %v, journaled %v; want both", ok, ok && e.journaled)
	}
	e.journaled = false
	s1.mu.Unlock()
	hit, err := s1.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("resubmission missed the cache")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rec := journalRecord(t, dir, hit.ID)
	if rec.State != "" || len(rec.Problem) == 0 {
		t.Fatalf("hit without a journaled result recorded state %q and %d problem bytes; want its problem",
			rec.State, len(rec.Problem))
	}

	// Drop the result record, as if its append had failed.
	recs, err := replayJournal(filepath.Join(dir, storeJournalName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, storeJournalName)); err != nil {
		t.Fatal(err)
	}
	var kept []storeRecord
	for _, r := range recs {
		if r.Kind != "result" {
			kept = append(kept, r)
		}
	}
	writeJournal(t, dir, kept...)

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	for _, id := range []string{first.ID, hit.ID} {
		got := waitState(t, s2, id, StateDone)
		if !bytes.Equal(got.Result, final.Result) {
			t.Fatalf("re-run job %s finished with different bytes", id)
		}
	}
	if execs := s2.Metrics().EngineExecutions; execs != 1 {
		t.Fatalf("recovery ran the engine %d times for two jobs of one problem, want 1", execs)
	}
}

// TestStoreRecoversProblemCarryingHits: in journals written before hits
// were journaled by key, a hit's record carries its full problem; recovery
// decodes it, finds the result in the recovered cache and serves those
// bytes without running the engine.
func TestStoreRecoversProblemCarryingHits(t *testing.T) {
	dir := t.TempDir()
	p := mpeg2Problem(t, 2010)
	enc, err := p.CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	key := ingest.EncodingKey(enc)
	at := time.Unix(1_700_000_000, 0)
	result := json.RawMessage(`{"power_w":1.5}`)
	writeJournal(t, dir,
		storeRecord{Kind: "job", ID: "j-000001", Key: key, Graph: p.Graph.Name(), Problem: enc, At: at},
		storeRecord{Kind: "result", ID: "j-000001", Key: key, State: StateDone,
			Result: result, Summary: "s", Total: 15, At: at.Add(time.Second)},
		storeRecord{Kind: "job", ID: "j-000002", Key: key, Graph: p.Graph.Name(), Problem: enc, At: at.Add(2 * time.Second)},
	)
	s := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s.Job("j-000002")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !got.CacheHit || !bytes.Equal(got.Result, result) ||
		got.Summary != "s" || got.Total != 15 {
		t.Fatalf("problem-carrying hit recovered as %+v", got)
	}
	if execs := s.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("recovery ran the engine %d times", execs)
	}
}

// TestStoreByKeyHitWithoutResultFails: a by-key hit record whose key has no
// done result in the journal recovers as failed, naming the key, and the ID
// sequence still resumes above it.
func TestStoreByKeyHitWithoutResultFails(t *testing.T) {
	dir := t.TempDir()
	const key = "sha256:0000000000000000000000000000000000000000000000000000000000000000"
	writeJournal(t, dir,
		storeRecord{Kind: "job", ID: "j-000004", Key: key, Graph: "g", State: StateDone, At: time.Unix(1_700_000_000, 0)},
		// A result record without a terminal state is no outcome at all.
		storeRecord{Kind: "result", ID: "j-000004", Key: key, State: StateRunning},
	)
	s := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s.Job("j-000004")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, key) {
		t.Fatalf("by-key hit without a result recovered as %s (error %q); want failed naming %s",
			got.State, got.Error, key)
	}
	next, err := s.Submit(mpeg2Problem(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j-000005" {
		t.Fatalf("post-recovery submission got ID %s, want j-000005", next.ID)
	}
}

// TestStoreOversizedGraphFails: a journaled job whose graph is over a size
// cap (a journal written by an older build) recovers as failed naming the
// cap instead of reaching an evaluator.
func TestStoreOversizedGraphFails(t *testing.T) {
	enc, err := fig8Problem(1, "").CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(enc, &doc); err != nil {
		t.Fatal(err)
	}
	var g strings.Builder
	g.WriteString(`{"name":"chain","registers":[],"tasks":[`)
	for i := 0; i <= taskgraph.MaxTasks; i++ {
		if i > 0 {
			g.WriteByte(',')
		}
		fmt.Fprintf(&g, `{"name":"t%d","cycles":1,"registers":[]}`, i)
	}
	g.WriteString(`],"edges":[]}`)
	doc["graph"] = json.RawMessage(g.String())
	big, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeJournal(t, dir, storeRecord{
		Kind: "job", ID: "j-000001", Key: ingest.EncodingKey(big), Graph: "chain",
		Problem: big, At: time.Unix(1_700_000_000, 0),
	})
	s := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s.Job("j-000001")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("cap of %d", taskgraph.MaxTasks); got.State != StateFailed || !strings.Contains(got.Error, want) {
		t.Fatalf("oversized job recovered as %s (error %q); want failed naming the %s", got.State, got.Error, want)
	}
}

// TestStoreReplaysLongRecords: a journal record over 64 MiB replays like
// any other, and so does the finished job after it.
func TestStoreReplaysLongRecords(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreServer(t, dir, Config{Workers: 1})
	var want []JobStatus
	for _, seed := range []int64{1, 2} {
		st, err := s1.Submit(fig8Problem(seed, ""), 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, waitState(t, s1, st.ID, StateDone))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Pad the first job's result record past 64 MiB with whitespace inside
	// its JSON object, streaming so the test never holds the line.
	path := filepath.Join(dir, storeJournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	padded := false
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec storeRecord
		if !padded && json.Unmarshal(line, &rec) == nil && rec.Kind == "result" && rec.ID == want[0].ID {
			padded = true
			if _, err := f.Write(line[:1]); err != nil {
				t.Fatal(err)
			}
			pad := bytes.Repeat([]byte(" "), 1<<20)
			for i := 0; i <= 64; i++ {
				if _, err := f.Write(pad); err != nil {
					t.Fatal(err)
				}
			}
			line = line[1:]
		}
		if _, err := f.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !padded {
		t.Fatalf("journal holds no result record for %s", want[0].ID)
	}

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	for _, w := range want {
		got, err := s2.Job(w.ID)
		if err != nil {
			t.Fatalf("recovery lost job %s: %v", w.ID, err)
		}
		if got.State != StateDone || !bytes.Equal(got.Result, w.Result) {
			t.Fatalf("job %s recovered as %s (bytes equal %v)", w.ID, got.State, bytes.Equal(got.Result, w.Result))
		}
	}
}

// TestStoreRecoversUnfinishedJobs simulates a SIGKILL between acceptance
// and completion: the journal holds an accepted job with no terminal
// record. The restarted server must re-enqueue it under its original ID and
// run it to the same bytes a never-crashed server produces.
func TestStoreRecoversUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	p := mpeg2Problem(t, 2010)
	enc, err := p.CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	key := ingest.EncodingKey(enc)

	// Craft the journal a killed daemon would leave behind: one accepted
	// job, no result — plus a torn final line from the append the kill
	// interrupted, which recovery must ignore.
	writeJournal(t, dir, storeRecord{
		Kind: "job", ID: "j-000007", Key: key, Graph: p.Graph.Name(),
		Problem: enc, At: time.Unix(1_700_000_000, 0),
	})
	f, err := os.OpenFile(filepath.Join(dir, storeJournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"result","id":"j-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reference bytes from a server that never crashed.
	ref := newTestServer(t, Config{Workers: 1})
	refSt, err := ref.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, ref, refSt.ID, StateDone)

	s := newStoreServer(t, dir, Config{Workers: 1})
	got := waitState(t, s, "j-000007", StateDone)
	if !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("re-run recovered job bytes differ:\n%s\nvs\n%s", got.Result, want.Result)
	}
	if got.Summary != want.Summary {
		t.Fatalf("re-run summary %q, want %q", got.Summary, want.Summary)
	}

	// The ID sequence resumes above the recovered job.
	next, err := s.Submit(mpeg2Problem(t, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "j-000008" {
		t.Fatalf("post-recovery submission got ID %s, want j-000008", next.ID)
	}
}

// TestStoreCoalescesRecoveredDuplicates: two accepted-but-unfinished jobs
// over the same problem share one recovered flight — a single engine
// execution finishes both with identical bytes.
func TestStoreCoalescesRecoveredDuplicates(t *testing.T) {
	dir := t.TempDir()
	p := mpeg2Problem(t, 2010)
	enc, err := p.CanonicalEncoding()
	if err != nil {
		t.Fatal(err)
	}
	key := ingest.EncodingKey(enc)
	var recs []storeRecord
	for _, id := range []string{"j-000001", "j-000002"} {
		recs = append(recs, storeRecord{
			Kind: "job", ID: id, Key: key, Graph: p.Graph.Name(),
			Problem: enc, At: time.Unix(1_700_000_000, 0),
		})
	}
	writeJournal(t, dir, recs...)

	s := newStoreServer(t, dir, Config{Workers: 2})
	a := waitState(t, s, "j-000001", StateDone)
	b := waitState(t, s, "j-000002", StateDone)
	if !bytes.Equal(a.Result, b.Result) {
		t.Fatal("recovered duplicate jobs finished with different bytes")
	}
	if execs := s.Metrics().EngineExecutions; execs != 1 {
		t.Fatalf("recovered duplicates ran the engine %d times, want 1", execs)
	}
}

// TestStoreRecoveredDuplicateRaisesPriority: recovery coalesces an
// unfinished priority-5 job onto its key's queued priority-0 flight and
// drags that flight ahead of a priority-0 flight recovered before it.
func TestStoreRecoveredDuplicateRaisesPriority(t *testing.T) {
	dir := t.TempDir()
	var keys []string
	var recs []storeRecord
	for i, sub := range []struct {
		seed     int64
		priority int
	}{{1, 0}, {2, 0}, {2, 5}} {
		p := mpeg2Problem(t, sub.seed)
		enc, err := p.CanonicalEncoding()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ingest.EncodingKey(enc))
		recs = append(recs, storeRecord{
			Kind: "job", ID: fmt.Sprintf("j-%06d", i+1), Key: keys[i], Graph: p.Graph.Name(),
			Priority: sub.priority, Problem: enc, At: time.Unix(1_700_000_000, 0),
		})
	}
	writeJournal(t, dir, recs...)
	s, err := newServer(Config{StoreDir: dir}) // no worker pool: flights stay queued
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if st, err := s.Job("j-000003"); err != nil || !st.Coalesced || st.State != StateQueued {
		t.Fatalf("recovered duplicate: %+v, %v; want queued and coalesced", st, err)
	}
	if got, want := queueOrder(s), []string{keys[1], keys[0]}; !slices.Equal(got, want) {
		t.Fatalf("queue order %v, want the raised flight first: %v", got, want)
	}
}

// TestStoreRecoversCanceledJobs: a cancel record makes the job terminal on
// recovery — it must not re-run.
func TestStoreRecoversCanceledJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreServer(t, dir, Config{Workers: 1})
	blocked := make(chan struct{})
	s1.hookExecute = func(*flight) { <-blocked }
	st, err := s1.Submit(mpeg2Problem(t, 2010), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	close(blocked)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newStoreServer(t, dir, Config{Workers: 1})
	got, err := s2.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("recovered canceled job in state %s", got.State)
	}
	if execs := s2.Metrics().EngineExecutions; execs != 0 {
		t.Fatalf("canceled job re-ran %d times after recovery", execs)
	}
}

// fig8Problem is the smallest real workload: the paper's 6-task example.
func fig8Problem(seed int64, mode string) *ingest.Problem {
	return &ingest.Problem{
		Graph:    taskgraph.Fig8(),
		Platform: arch.MustNewPlatform(4, arch.ARM7Levels3()),
		Options:  ingest.Options{DeadlineSec: taskgraph.Fig8Deadline, Seed: seed, Mode: mode},
	}
}

// realJournal runs a store-backed server through every record kind — a
// canceled job, a finished scalar job and its by-key cache hit, a finished
// Pareto job — and returns the journal it wrote.
func realJournal(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := NewServer(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	release := make(chan struct{})
	s.hookExecute = func(*flight) { <-release }
	submit := func(p *ingest.Problem) string {
		st, err := s.Submit(p, 0)
		if err != nil {
			f.Fatal(err)
		}
		return st.ID
	}
	canceled := submit(fig8Problem(1, ""))
	if _, err := s.Cancel(canceled); err != nil {
		f.Fatal(err)
	}
	close(release)
	waitState(f, s, submit(fig8Problem(2, "")), StateDone)
	waitState(f, s, submit(fig8Problem(2, "")), StateDone) // a cache hit, journaled by key
	waitState(f, s, submit(fig8Problem(3, ingest.ModePareto)), StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, storeJournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	recs, err := replayJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	kinds := make(map[string]bool)
	for _, rec := range recs {
		if rec.Kind == "job" && rec.State == StateDone {
			kinds["by-key hit"] = true
		} else {
			kinds[rec.Kind] = true
		}
	}
	for _, kind := range []string{"job", "by-key hit", "result", "cancel", "hint", "frontier"} {
		if !kinds[kind] {
			f.Fatalf("seed journal has no %s record:\n%s", kind, data)
		}
	}
	return data
}

// FuzzReplayJournal feeds arbitrary bytes to recovery as journal.jsonl:
// replay and recovery never panic, every recovered job is queued or
// terminal under a unique ID, and a new submission's ID collides with none
// of them.
func FuzzReplayJournal(f *testing.F) {
	journal := realJournal(f)
	f.Add(journal)
	f.Add(append(append([]byte(nil), journal...), `{"kind":"result","id":"j-0000`...))
	// One directory for every input: a fresh randomly named one per input
	// would vary the paths, and so the coverage, from run to run.
	dir := filepath.Join(f.TempDir(), "store")
	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if err := os.WriteFile(filepath.Join(dir, storeJournalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		// No worker pool: recovered flights stay queued while they are
		// inspected, and no engine runs on fuzzed problems. A fixed clock
		// keeps the new submission's record, and so coverage, the same on
		// every run of an input.
		now := time.Unix(1_700_000_000, 0)
		s, err := newServer(Config{StoreDir: dir, Now: func() time.Time { return now }})
		if err != nil {
			return
		}
		// Without workers Close returns at once; a canceled context would
		// race its two exits and make coverage flaky.
		defer s.Close(context.Background())
		recovered := make(map[string]bool)
		s.mu.Lock()
		for _, id := range s.jobOrder {
			j := s.jobs[id]
			if j.state != StateQueued && !j.state.Terminal() {
				s.mu.Unlock()
				t.Fatalf("job %q recovered in state %q", id, j.state)
			}
			if recovered[id] {
				s.mu.Unlock()
				t.Fatalf("job ID %q recovered twice", id)
			}
			recovered[id] = true
		}
		s.mu.Unlock()
		st, err := s.Submit(fig8Problem(2, ""), 0)
		if errors.Is(err, ErrQueueFull) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if recovered[st.ID] {
			t.Fatalf("new submission reissued recovered job ID %s", st.ID)
		}
	})
}
