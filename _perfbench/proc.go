package main

import (
	"context"
	"errors"
	"fmt"
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

// proc is one daemon process the benchmark started.
type proc struct {
	name    string
	url     string
	logPath string
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been reaped
	waitErr error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// daemonNice is the niceness daemons run at. On two CPUs a scoring pass
// keeps both busy; at equal priority the generator then waits tens of
// milliseconds for a CPU and sends late, and the due-time latencies
// describe the generator instead of the daemon.
const daemonNice = 10

// startProc launches bin with args plus -addr on a free loopback port,
// at daemonNice, logging to dir/name.log. The child is killed if the
// benchmark dies.
func startProc(name, bin, dir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// nice execs bin in place, so the process ID is the daemon's.
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(daemonNice), bin, "-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, logPath: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down and waits for it, killing it if it
// has not exited within grace.
func (p *proc) stop(grace time.Duration) {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below either way
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill() // as above
		<-p.done
	}
}

// logTail returns the last lines of the process log, for failure
// reports.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitReady polls url+path until it answers 200. It fails early when
// the process exits.
func waitReady(ctx context.Context, c *http.Client, p *proc, path string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.waitErr, p.logTail())
		}
		select {
		case <-ctx.Done():
			return errors.Join(ctx.Err(), fmt.Errorf("%s not ready:\n%s", p.name, p.logTail()))
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// group is the set of processes of one pass, stopped together.
type group []*proc

func (g group) stop() {
	for i := len(g) - 1; i >= 0; i-- {
		g[i].stop(10 * time.Second)
	}
}

// readAll samples every process's CPU and write counters.
func (g group) readAll() ([]procSample, error) {
	out := make([]procSample, len(g))
	for i, p := range g {
		s, err := readProc(p.pid())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = s
	}
	return out, nil
}

// peakRSS sums VmHWM over the processes.
func (g group) peakRSS() (int64, error) {
	var sum int64
	for _, p := range g {
		n, err := procPeakRSSBytes(p.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += n
	}
	return sum, nil
}
