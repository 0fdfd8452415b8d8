package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one parmmd process started with its default flags except the
// listen address, its stderr (the access log) going to a file in the build
// directory.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan struct{}
	err    error
}

// newClient returns an HTTP client holding at most conns connections, so
// the load never uses more concurrency than the workload states.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// setupDaemon launches parmmd and generates the inputs (gen, when not
// nil) setupRepeats times, keeping the last daemon; it returns the median
// set-up time.
func (b *bench) setupDaemon(conns int, gen func() error) (*daemon, float64, error) {
	times := make([]float64, 0, setupRepeats)
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		d, err = startDaemon(b.parmmd, filepath.Join(b.outDir, "parmmd-"+b.workload+".log"), conns)
		if err != nil {
			return nil, 0, err
		}
		if gen != nil {
			if err := gen(); err != nil {
				d.stop()
				return nil, 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Printf("set-up times: %.4g s\n", times)
	return d, median(times), nil
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before parmmd binds; startDaemon then fails and retries.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches parmmd and returns once /healthz answers 200.
func startDaemon(bin, logPath string, conns int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launch(bin, logPath, conns)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(bin, logPath string, conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting parmmd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, client: newClient(conns), log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := d.awaitHealthy(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	probe := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("parmmd exited before becoming healthy: %v (log: %s)", d.err, d.log.Name())
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return nil
			}
		}
		// Poll finely: set-up takes a few milliseconds, and time.Sleep
		// could overshoot by as much as one poll interval.
		preciseSleep(100 * time.Microsecond)
	}
	return errors.New("parmmd did not become healthy within " + limit.String())
}

// stop shuts parmmd down (SIGTERM, then SIGKILL after a grace period),
// waits for it to exit, and returns its peak resident set in MiB.
func (d *daemon) stop() float64 {
	rss := peakRSS(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	return rss
}

// post sends body to path and reads the whole answer into buf (reset
// first). It returns the status and the outcome class of the exchange.
func (d *daemon) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, class) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, classTransport
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, classify(ctx.Err(), err, 0)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, classify(ctx.Err(), err, resp.StatusCode)
}

// peakRSS reads a process's peak resident set (VmHWM, in MiB) from its
// /proc status file; 0 when unavailable. The exit rusage of a child is no
// substitute: Linux folds the parent's resident set at fork into it.
func peakRSS(statusPath string) float64 {
	blob, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
