package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"seadopt"
)

// The multi-process gauntlet: these tests re-exec the test binary as real
// seadoptd OS processes (so SIGKILL means SIGKILL and the race detector
// rides along into every daemon), wire them into a coordinator/worker
// topology or crash-and-restart cycle, and assert the distributed and
// durable-store contracts over actual HTTP.

// TestDaemonProcess is not a test: it is the re-exec entry point that turns
// this test binary into a seadoptd daemon when SEADOPTD_ARGS is set.
func TestDaemonProcess(t *testing.T) {
	raw := os.Getenv("SEADOPTD_ARGS")
	if raw == "" {
		t.Skip("helper entry point for re-exec'd daemon processes")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	err := run(ctx, strings.Split(raw, "\x1f"), func(addr string) {
		fmt.Printf("DAEMON_ADDR %s\n", addr)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemonProc is one re-exec'd seadoptd process under test control. exited
// closes once the process is gone (waitErr then holds its exit error), so
// any number of waiters — terminate, sigkill, the test cleanup — can block
// on it.
type daemonProc struct {
	t       *testing.T
	cmd     *exec.Cmd
	base    string
	exited  chan struct{}
	waitErr error
}

// spawnDaemon boots seadoptd as a separate OS process and waits for it to
// report its bound address.
func spawnDaemon(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestDaemonProcess$")
	cmd.Env = append(os.Environ(), "SEADOPTD_ARGS="+strings.Join(args, "\x1f"))
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "DAEMON_ADDR "); ok {
				addrCh <- addr
			}
		}
	}()
	d := &daemonProc{t: t, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-d.exited
	})
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-d.exited:
		t.Fatalf("daemon %v exited before ready: %v", args, d.waitErr)
	case <-time.After(time.Minute):
		t.Fatalf("daemon %v never became ready", args)
	}
	return d
}

// terminate sends SIGTERM and waits for a clean drain-and-exit.
func (d *daemonProc) terminate() {
	d.t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.waitErr != nil {
			d.t.Fatalf("daemon exit after SIGTERM: %v", d.waitErr)
		}
	case <-time.After(time.Minute):
		d.t.Fatal("daemon did not exit after SIGTERM")
	}
}

// sigkill hard-kills the process — the crash under test.
func (d *daemonProc) sigkill() {
	d.t.Helper()
	_ = d.cmd.Process.Kill()
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.t.Fatal("daemon did not die after SIGKILL")
	}
}

type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
}

func submitEnvelope(t *testing.T, base string, env []byte) jobView {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs: %d: %s", resp.StatusCode, raw)
	}
	var jv jobView
	if err := json.Unmarshal(raw, &jv); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return jv
}

func getJobView(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d: %s", id, resp.StatusCode, raw)
	}
	var jv jobView
	if err := json.Unmarshal(raw, &jv); err != nil {
		t.Fatal(err)
	}
	return jv
}

func waitJobState(t *testing.T, base, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		jv := getJobView(t, base, id)
		if jv.State == want {
			return jv
		}
		if jv.State == "failed" || jv.State == "canceled" ||
			(jv.State == "done" && want != "done") {
			t.Fatalf("job %s reached %s (%s), want %s", id, jv.State, jv.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, jv.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mpeg2Env(t *testing.T, extra map[string]any) []byte {
	t.Helper()
	gj, err := seadopt.MPEG2().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	options := map[string]any{
		"deadline_sec":      seadopt.MPEG2Deadline,
		"stream_iterations": seadopt.MPEG2Frames,
		"seed":              2010,
	}
	for k, v := range extra {
		options[k] = v
	}
	env, err := json.Marshal(map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 4, "levels": 3},
		"options":  options,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// freeAddr reserves an ephemeral port and releases it for the daemon that
// needs to know its own address (-advertise) before binding.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDistributedDaemons boots a coordinator and two worker seadoptd
// processes on ephemeral ports, runs MPEG-2 scalar and Pareto jobs through
// the coordinator, and asserts the result bytes equal a single-node
// daemon's golden bytes, with the shard counters proving the work went
// remote.
func TestDistributedDaemons(t *testing.T) {
	single := spawnDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s")
	w1 := spawnDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s")
	w2 := spawnDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1", "-drain-timeout", "10s")
	coordAddr := freeAddr(t)
	coord := spawnDaemon(t, "-addr", coordAddr, "-advertise", "http://"+coordAddr,
		"-peer", w1.base, "-peer", w2.base, "-workers", "1", "-drain-timeout", "10s")

	for _, tc := range []struct {
		name  string
		extra map[string]any
	}{
		{"scalar", nil},
		{"pareto", map[string]any{"mode": "pareto"}},
	} {
		env := mpeg2Env(t, tc.extra)
		ref := submitEnvelope(t, single.base, env)
		golden := waitJobState(t, single.base, ref.ID, "done")

		got := submitEnvelope(t, coord.base, env)
		final := waitJobState(t, coord.base, got.ID, "done")
		if !bytes.Equal(final.Result, golden.Result) {
			t.Fatalf("%s: distributed result differs from single-node golden:\n%s\nvs\n%s",
				tc.name, final.Result, golden.Result)
		}
	}

	mresp, err := http.Get(coord.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(body, []byte("seadoptd_sharded_executions_total 2")) {
		t.Fatalf("coordinator did not shard both jobs:\n%s",
			firstMatching(body, "seadoptd_sharded_executions_total"))
	}
	var served int
	for _, w := range []*daemonProc{w1, w2} {
		resp, err := http.Get(w.base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v int
		if _, err := fmt.Sscanf(firstMatching(wb, "seadoptd_shards_served_total"),
			"seadoptd_shards_served_total %d", &v); err != nil {
			t.Fatalf("worker metrics: %v", err)
		}
		served += v
	}
	if served != 4 {
		t.Fatalf("workers served %d shards for 2 sharded jobs × 2 peers, want 4", served)
	}

	coord.terminate()
	w1.terminate()
	w2.terminate()
	single.terminate()
}

func firstMatching(body []byte, prefix string) string {
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return line
		}
	}
	return ""
}

// TestCrashRecoveryDaemon is the durability acceptance test as real
// processes: a daemon with a -store directory finishes one job, answers its
// resubmission from cache, and is running another job when it is
// SIGKILLed; the restarted daemon (same store) still serves the finished
// job's and the cache hit's exact bytes, answers an identical resubmission
// from the recovered cache, and has re-enqueued the interrupted job under
// its original ID.
func TestCrashRecoveryDaemon(t *testing.T) {
	dir := t.TempDir()
	d1 := spawnDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-store", dir, "-drain-timeout", "5s")

	fast := mpeg2Env(t, nil)
	fj := submitEnvelope(t, d1.base, fast)
	finished := waitJobState(t, d1.base, fj.ID, "done")
	// A cache hit, journaled by its key rather than its problem.
	hit := submitEnvelope(t, d1.base, fast)
	if !hit.CacheHit || hit.State != "done" {
		t.Fatalf("resubmission before the crash: state %s, cacheHit %v", hit.State, hit.CacheHit)
	}

	// A long job to be mid-flight at the kill: a 60-task graph with a large
	// local-search budget.
	g, err := seadopt.RandomGraph(seadopt.DefaultRandomGraphConfig(60), 3)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	slowEnv, _ := json.Marshal(map[string]any{
		"format":   "json",
		"graph":    json.RawMessage(gj),
		"platform": map[string]int{"cores": 6, "levels": 3},
		"options": map[string]any{
			"deadline_sec": seadopt.RandomGraphDeadline(60),
			"search_moves": 500_000,
			"seed":         3,
		},
	})
	sj := submitEnvelope(t, d1.base, slowEnv)
	waitJobState(t, d1.base, sj.ID, "running")

	d1.sigkill()

	d2 := spawnDaemon(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-store", dir, "-drain-timeout", "5s")

	// The finished job survived with its exact bytes.
	rec := getJobView(t, d2.base, fj.ID)
	if rec.State != "done" {
		t.Fatalf("recovered job %s in state %s, want done", fj.ID, rec.State)
	}
	if !bytes.Equal(rec.Result, finished.Result) {
		t.Fatalf("recovered result bytes changed:\n%s\nvs\n%s", rec.Result, finished.Result)
	}
	// So did the cache hit, served from the finished job's result record.
	hrec := getJobView(t, d2.base, hit.ID)
	if hrec.State != "done" || !hrec.CacheHit || !bytes.Equal(hrec.Result, finished.Result) {
		t.Fatalf("recovered cache hit %s: state %s, cacheHit %v, bytes equal %v",
			hit.ID, hrec.State, hrec.CacheHit, bytes.Equal(hrec.Result, finished.Result))
	}
	// An identical resubmission is served from the recovered cache.
	again := submitEnvelope(t, d2.base, fast)
	if !again.CacheHit || !bytes.Equal(again.Result, finished.Result) {
		t.Fatalf("resubmission after crash: cacheHit=%v, bytes equal=%v",
			again.CacheHit, bytes.Equal(again.Result, finished.Result))
	}
	// The interrupted job was re-enqueued under its original ID.
	mid := getJobView(t, d2.base, sj.ID)
	if mid.State != "queued" && mid.State != "running" {
		t.Fatalf("interrupted job %s recovered in state %s, want queued/running", sj.ID, mid.State)
	}
	// Cancel it so the drain below is prompt; cancellation must work on a
	// recovered flight like on any other.
	req, _ := http.NewRequest(http.MethodDelete, d2.base+"/v1/jobs/"+sj.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel recovered job: %d", resp.StatusCode)
	}

	d2.terminate()
}
