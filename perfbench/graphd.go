package main

import (
	"bufio"
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
	"sync"
	"syscall"
	"time"
)

// graphd is one running graphd child process.
type graphd struct {
	cmd       *exec.Cmd
	base      string // http://addr of the serving port
	debug     string // http://addr of the -debug-addr port
	started   time.Time
	exited    chan struct{}
	waitErr   error
	stopOnce  sync.Once
	logFile   *os.File
	processID int
}

// children tracks every live graphd so an aborted run still stops them.
var children struct {
	sync.Mutex
	set map[*graphd]bool
}

// stopAll stops every child still running; main defers it.
func stopAll() {
	children.Lock()
	live := make([]*graphd, 0, len(children.set))
	for g := range children.set {
		live = append(live, g)
	}
	children.Unlock()
	for _, g := range live {
		g.stop()
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startGraphd launches bin with the given extra flags, its serving and
// debug listeners on fresh loopback ports, and stderr appended to
// logPath. The start instant is taken just before exec, so set-up times
// count process start-up.
func startGraphd(bin, logPath string, flags ...string) (*graphd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-debug-addr", debugAddr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	g := &graphd{cmd: cmd, base: "http://" + addr, debug: "http://" + debugAddr,
		exited: make(chan struct{}), logFile: logFile}
	g.started = time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting graphd: %w", err)
	}
	g.processID = cmd.Process.Pid
	children.Lock()
	if children.set == nil {
		children.set = map[*graphd]bool{}
	}
	children.set[g] = true
	children.Unlock()
	go func() {
		g.waitErr = cmd.Wait()
		close(g.exited)
	}()
	return g, nil
}

// stop sends SIGTERM (graphd closes its store cleanly on it), waits for
// the exit, and kills the process if it has not exited in 60 s.
func (g *graphd) stop() error {
	var err error
	g.stopOnce.Do(func() {
		_ = g.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine; Wait reports
		select {
		case <-g.exited:
		case <-time.After(60 * time.Second):
			_ = g.cmd.Process.Kill()
			<-g.exited
			err = errors.New("graphd did not exit within 60s of SIGTERM")
		}
		g.logFile.Close()
		children.Lock()
		delete(children.set, g)
		children.Unlock()
	})
	return err
}

// alive reports an error if the process has exited.
func (g *graphd) alive() error {
	select {
	case <-g.exited:
		return fmt.Errorf("graphd exited: %v (see %s)", g.waitErr, g.logFile.Name())
	default:
		return nil
	}
}

// waitAnswer polls probe until it succeeds and returns the time since
// process start. Connection errors are expected while graphd boots.
func (g *graphd) waitAnswer(ctx context.Context, probe func() error) (time.Duration, error) {
	for {
		err := probe()
		if err == nil {
			return time.Since(g.started), nil
		}
		if aerr := g.alive(); aerr != nil {
			return 0, aerr
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("graphd not answering: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// vmHWMMB reads the process's peak resident set from /proc.
func (g *graphd) vmHWMMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", g.processID))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// collect runs a full garbage collection in graphd through the debug
// listener's heap profile (?gc=1 calls runtime.GC first) and discards
// the profile. A measured window that starts after it carries no
// collection owed by the work before it; its own allocation still
// triggers the collections it causes. One cycle keeps graphd's pooled
// workspaces (sync.Pool drops an object after two idle cycles). The
// collection's CPU time falls before the window.
func (g *graphd) collect(ctx context.Context, hc *http.Client) error {
	_, err := getRaw(ctx, hc, g.debug+"/debug/pprof/heap?gc=1")
	return err
}

// cpuSeconds sums the on-CPU time of the process's threads from
// /proc/<pid>/task/*/schedstat, in ns resolution. Unlike wall time it
// does not count time the hypervisor gave to other guests. Threads that
// have exited drop out of the sum; the Go runtime rarely retires one.
func (g *graphd) cpuSeconds() (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", g.processID))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, errors.New("no /proc schedstat for graphd")
	}
	var ns float64
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", path)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", path, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// postRaw sends a JSON body and returns the raw response bytes; used
// where the exact bytes matter (restart comparisons) and for probes.
func postRaw(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func getRaw(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}
