package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// proc is one running cfdserve child.
type proc struct {
	name string
	addr string // host:port on loopback
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

func (p *proc) base() string { return "http://" + p.addr }
func (p *proc) pid() int     { return p.cmd.Process.Pid }

// procs tracks every child so that every exit path stops and waits for all
// of them.
type procs struct {
	mu   sync.Mutex
	live []*proc
}

// freeAddr reserves an ephemeral loopback port and releases it for the child.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches bin with args plus -addr on a free loopback port. The child
// runs with GOMAXPROCS=gomaxprocs and logs to <logDir>/<name>.log.
func (ps *procs) start(bin, name, logDir string, gomaxprocs int, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()
	return p, nil
}

// waitReady polls GET /v1/health until it answers 200 (and, for a
// coordinator, reports status ok), the child exits, or the timeout passes.
func (p *proc) waitReady(ctx context.Context, timeout time.Duration) error {
	c := newClient(p.base())
	defer c.close()
	deadline := time.Now().Add(timeout)
	for {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		status, body, err := c.do(cctx, "GET", "/v1/health", nil, nil)
		cancel()
		if err == nil && status == 200 && !bytes.Contains(body, []byte(`"status": "degraded"`)) {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready: %v (see its log)", p.name, p.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", p.name, timeout)
		}
	}
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// stopAll kills every child still running and waits for each.
func (ps *procs) stopAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// forget drops an already-stopped child from the registry.
func (ps *procs) forget(p *proc) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			return
		}
	}
}

// killAndForget stops one child for good.
func (ps *procs) killAndForget(p *proc) {
	p.kill()
	ps.forget(p)
}

// memOf sums the resident memory of the given processes.
func memOf(ps ...*proc) (procMem, error) {
	var total procMem
	for _, p := range ps {
		m, err := readProcMem(p.pid())
		if err != nil {
			return total, err
		}
		total.rss += m.rss
		total.hwm += m.hwm
	}
	return total, nil
}

// scrape reads and parses one child's /metrics.
func scrape(ctx context.Context, c *client) (promSnapshot, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// buildServe compiles cmd/cfdserve from the tree into dir.
func buildServe(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "cfdserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cfdserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cfdserve: %v\n%s", err, out)
	}
	return bin, nil
}
