package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one seadoptd process the benchmark started. Its structured log
// goes to a file in the run directory; its listen address is read back
// from the "listening" line, since it binds an ephemeral port.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	base   string
	store  string
}

// daemonTimeout bounds a boot, including the journal replay that runs
// before the daemon listens.
const daemonTimeout = 60 * time.Second

// startDaemon boots seadoptd on store, with the engine sized for a 2-core
// host, and waits until /healthz answers 200.
func startDaemon(ctx context.Context, bin, store string, client *http.Client) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("the service workloads need -seadoptd")
	}
	if err := os.MkdirAll(filepath.Dir(store), 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(filepath.Dir(store), "seadoptd.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	offset, err := logf.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-engine-parallel", "1", "-store", store)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting seadoptd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), store: store}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(ctx, logPath, offset, client); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// awaitReady polls the log for the listen address, then /healthz.
func (d *daemon) awaitReady(ctx context.Context, logPath string, offset int64, client *http.Client) error {
	deadline := time.Now().Add(daemonTimeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("seadoptd exited during boot (%v); see %s", d.err, logPath)
		case <-ctx.Done():
			return errStopped
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seadoptd not ready after %v; see %s", daemonTimeout, logPath)
		}
		if d.base == "" {
			addr, err := listenAddr(logPath, offset)
			if err != nil {
				return err
			}
			if addr != "" {
				d.base = "http://" + addr
			}
		}
		if d.base != "" {
			resp, err := client.Get(d.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listenAddr finds the address in the daemon's "listening" log line written
// after offset, or "" when it has not been written yet.
func listenAddr(logPath string, offset int64) (string, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return "", err
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "msg=listening") {
			continue
		}
		for _, field := range strings.Fields(line) {
			if addr, ok := strings.CutPrefix(field, "addr="); ok {
				return addr, nil
			}
		}
	}
	return "", sc.Err()
}

// stop sends SIGTERM and waits for the drain; it kills the process if the
// drain outlasts daemonTimeout.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-d.exited:
			return fmt.Errorf("seadoptd had already exited: %v", d.err)
		default:
			return err
		}
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(daemonTimeout):
		d.kill()
		return fmt.Errorf("seadoptd did not drain within %v", daemonTimeout)
	}
}

// kill ends the process and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process is already gone
	<-d.exited
}

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.cmd.Process.Pid) }

// peakRSSMiB is the daemon's peak resident set so far.
func (d *daemon) peakRSSMiB() (float64, error) { return peakRSSMiB(d.cmd.Process.Pid) }

// scrapeMetrics reads the daemon's unlabelled Prometheus counters and
// gauges.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
