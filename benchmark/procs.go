package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the programs under test from the tree into
// dir. The go tool skips the link when the outputs are current, so only
// the first run in a checkout pays for it; build time is never part of
// setup_s.
func buildBinaries(ctx context.Context, root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/hadfl-serve", "./cmd/hadfl-worker")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building hadfl-serve and hadfl-worker: %w\n%s", err, out)
	}
	return nil
}

// child is one running program under test.
type child struct {
	name   string
	cmd    *exec.Cmd
	lines  chan string   // stdout lines, for the "listening on" banners
	exited chan struct{} // closed once Wait has returned
	mu     sync.Mutex
	stderr bytes.Buffer
}

// startChild launches bin with args. The child dies with ctx, and with
// this process should it be killed without a chance to clean up.
func startChild(ctx context.Context, name, bin string, args ...string) (*child, error) {
	c := &child{name: name, lines: make(chan string, 16), exited: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &lockedWriter{mu: &c.mu, w: &c.stderr}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // nobody is waiting for banners any more
			}
		}
		_ = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// awaitBanner waits for a stdout line matching re and returns its first
// submatch.
func (c *child) awaitBanner(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line := <-c.lines:
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		case <-c.exited:
			return "", fmt.Errorf("%s exited before it was ready: %s", c.name, c.stderrTail())
		case <-deadline:
			return "", fmt.Errorf("%s not ready after %s: %s", c.name, timeout, c.stderrTail())
		}
	}
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := strings.TrimSpace(c.stderr.String())
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

func (c *child) dead() bool {
	select {
	case <-c.exited:
		return true
	default:
		return false
	}
}

// stop asks the child to shut down, kills it if it has not within the
// grace, and returns once it has ended.
func (c *child) stop(grace time.Duration) {
	if c.dead() {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// peakRSSMB reads the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) { return peakRSSMB(c.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of a live process from /proc.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

var (
	serveBanner      = regexp.MustCompile(`^hadfl-serve listening on (\S+)`)
	workerBanner     = regexp.MustCompile(`^hadfl-worker \d+ listening on (\S+)`)
	workerHTTPBanner = regexp.MustCompile(`^hadfl-worker \d+ observability HTTP on (\S+)`)
)

// fleet is one instance of the system under test: a hadfl-serve and,
// in dispatch mode, the hadfl-worker processes it ships runs to.
type fleet struct {
	serve      *child
	workers    []*child
	base       string   // http://host:port of hadfl-serve
	workerHTTP []string // http://host:port of each worker's /metrics
}

const readyTimeout = 20 * time.Second

// startFleet boots hadfl-serve with `size` concurrent runs. With
// dispatch it first boots `size` workers of capacity 1 and points the
// server at them over loopback TCP; otherwise runs execute in the
// server's own pool. Every listener binds port 0, so concurrent
// benchmarks cannot collide. Rate limiting is off: the generator, not
// the token bucket, sets the offered load.
func startFleet(ctx context.Context, binDir string, dispatch bool, size int) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	args := []string{"-addr", "127.0.0.1:0", "-rate", "0", "-tensor-workers", "1", "-workers", strconv.Itoa(size)}
	if dispatch {
		var addrs []string
		for i := 1; i <= size; i++ {
			w, err := startChild(ctx, fmt.Sprintf("hadfl-worker %d", i), filepath.Join(binDir, "hadfl-worker"),
				"-id", strconv.Itoa(i), "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
				"-capacity", "1", "-tensor-workers", "1")
			if err != nil {
				return f, err
			}
			f.workers = append(f.workers, w)
			// The worker prints the observability banner first.
			httpAddr, err := w.awaitBanner(workerHTTPBanner, readyTimeout)
			if err != nil {
				return f, err
			}
			addr, err := w.awaitBanner(workerBanner, readyTimeout)
			if err != nil {
				return f, err
			}
			f.workerHTTP = append(f.workerHTTP, "http://"+httpAddr)
			addrs = append(addrs, addr)
		}
		args = append(args, "-dispatch", strings.Join(addrs, ","))
	}
	f.serve, err = startChild(ctx, "hadfl-serve", filepath.Join(binDir, "hadfl-serve"), args...)
	if err != nil {
		return f, err
	}
	addr, err := f.serve.awaitBanner(serveBanner, readyTimeout)
	if err != nil {
		return f, err
	}
	f.base = "http://" + addr
	return f, nil
}

func (f *fleet) children() []*child {
	all := append([]*child(nil), f.workers...)
	if f.serve != nil {
		all = append(all, f.serve)
	}
	return all
}

// checkAlive fails when any process has exited: a child that dies
// during the window fails the workload instead of quietly shrinking
// its denominator.
func (f *fleet) checkAlive() error {
	for _, c := range f.children() {
		if c.dead() {
			return fmt.Errorf("%s died during the run: %s", c.name, c.stderrTail())
		}
	}
	return nil
}

// peakRSSMB sums the resident-set high-water marks of every process.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, c := range f.children() {
		mb, err := c.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		total += mb
	}
	return total, nil
}

// stop ends the server first (it drains its dispatcher), then the
// workers, and waits for each.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	if f.serve != nil {
		f.serve.stop(3 * time.Second)
	}
	for _, w := range f.workers {
		w.stop(3 * time.Second)
	}
}
