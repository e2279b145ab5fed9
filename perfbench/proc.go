package main

import (
	"bytes"
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

// server is one csrserver process under test. Its log goes to a file in
// the run's work directory so a crash can be reported by name.
type server struct {
	name    string
	addr    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once the process has exited and been reaped
	waitErr error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin with args plus -addr on a fresh loopback port.
func startServer(name, bin, workDir string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(workDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s := &server{name: name, addr: addr, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// exitReport names how the process ended: its wait status and, for a Go
// runtime crash, the fatal signal line from its log.
func (s *server) exitReport() string {
	if !s.exited() {
		return s.name + ": running"
	}
	msg := fmt.Sprintf("%s: %v", s.name, s.waitErr)
	if s.waitErr == nil {
		msg = s.name + ": exited cleanly"
	}
	if b, err := os.ReadFile(s.logPath); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "[signal ") || strings.HasPrefix(line, "panic: ") || strings.HasPrefix(line, "fatal error: ") {
				msg += " | " + strings.TrimSpace(line)
			}
		}
		// The first repository frame of the crashing goroutine names the
		// function and line that faulted.
		if i := bytes.Index(b, []byte("\ngoroutine ")); i >= 0 {
			lines := strings.Split(string(b[i:]), "\n")
			for j := 0; j+1 < len(lines); j++ {
				if strings.HasPrefix(lines[j], "csrplus") {
					msg += " | at " + lines[j] + " " + strings.Fields(lines[j+1])[0]
					break
				}
			}
		}
	}
	return msg
}

// waitReady polls /readyz until it answers 200 and returns the time since
// the process was launched.
func (s *server) waitReady(launched time.Time, timeout time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second}
	deadline := launched.Add(timeout)
	for time.Now().Before(deadline) {
		if s.exited() {
			return 0, fmt.Errorf("%s died during boot: %s", s.name, s.exitReport())
		}
		resp, err := client.Get(s.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(launched), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("%s not ready after %v (log %s)", s.name, timeout, s.logPath)
}

// hwmMB is the process's peak resident set (VmHWM) in MiB.
func (s *server) hwmMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// returns once the process has been reaped.
func (s *server) stop() {
	if s.exited() {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cluster is every server process a workload runs; stopAll is deferred
// by the workload so no process outlives the run.
type cluster struct {
	servers []*server
}

func (c *cluster) add(s *server) *server {
	c.servers = append(c.servers, s)
	return s
}

func (c *cluster) stopAll() {
	for _, s := range c.servers {
		s.stop()
	}
	c.servers = nil
}

// peakMB sums VmHWM over the live processes.
func (c *cluster) peakMB() float64 {
	total := 0.0
	for _, s := range c.servers {
		total += s.hwmMB()
	}
	return total
}

// boot launches a server and waits for readiness; on failure the process
// is stopped before the error returns.
func boot(name, bin, workDir string, timeout time.Duration, args ...string) (*server, time.Duration, error) {
	launched := time.Now()
	s, err := startServer(name, bin, workDir, args...)
	if err != nil {
		return nil, 0, err
	}
	d, err := s.waitReady(launched, timeout)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, d, nil
}
