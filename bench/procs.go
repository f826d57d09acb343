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
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds the wait for a started daemon to report ready.
const readyTimeout = 60 * time.Second

// proc is one lamod child process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	base    string // http://host:port
	logPath string
	line    chan struct{} // closed once the process has printed its first line on stdout
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

// firstLine passes output through to w and closes seen once the first
// line is complete.
type firstLine struct {
	w    io.Writer
	seen chan struct{}
	once sync.Once
}

func (f *firstLine) Write(p []byte) (int, error) {
	if bytes.IndexByte(p, '\n') >= 0 {
		f.once.Do(func() { close(f.seen) })
	}
	return f.w.Write(p)
}

// spawn starts lamod with args, as spawnProg does.
func (r *runner) spawn(name, base string, args ...string) (*proc, error) {
	return r.spawnProg(r.lamod, name, base, args...)
}

// spawnProg starts prog with args, logging to <work>/logs/<name>.log. The
// child is killed if the bench dies; stop ends it otherwise.
func (r *runner) spawnProg(prog, name, base string, args ...string) (*proc, error) {
	logPath := filepath.Join(r.work, "logs", name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, base: base, logPath: logPath, line: make(chan struct{}), done: make(chan struct{})}
	cmd := exec.Command(prog, args...)
	cmd.Stdout, cmd.Stderr = &firstLine{w: logf, seen: p.line}, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.cmd = cmd
	go func() {
		p.waitErr = cmd.Wait()
		_ = logf.Close() // the child wrote its log; nothing to flush here
		close(p.done)
	}()
	r.procs = append(r.procs, p)
	return p, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited within 15 s. It returns once the process is gone.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
	t := time.NewTimer(15 * time.Second)
	defer t.Stop()
	select {
	case <-p.done:
	case <-t.C:
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of the process log, for error messages.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read only: nothing to flush
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %s: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// stack is a running serving stack: one daemon, or replicas plus gateway.
// base is where clients send traffic.
type stack struct {
	procs []*proc
	base  string
}

func (s *stack) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

func (s *stack) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range s.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// freeAddr reserves a loopback port and releases it for a child to bind.
func freeAddr() (string, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return "", err
	}
	return addrs[0], nil
}

// freeAddrs reserves n distinct loopback ports and releases them for
// children to bind. The ports are held together until all are chosen: a
// port released before the next is chosen may be chosen again.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			_ = l.Close() // a listener that never accepted: nothing to flush
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// healthz is the union of the daemon's and the gateway's /v1/healthz
// bodies; the gateway reports ready as a replica count.
type healthz struct {
	Status      string          `json:"status"`
	Ready       json.RawMessage `json:"ready"`
	Total       int             `json:"total"`
	Artifact    string          `json:"artifact"`
	MixedDigest bool            `json:"mixed_digest"`
}

// serveReady accepts a daemon that is ready and serves digest.
func serveReady(digest string) func(healthz) bool {
	return func(h healthz) bool {
		return h.Status == "ok" && string(h.Ready) == "true" && h.Artifact == digest
	}
}

// fleetReady accepts a gateway whose replicas are all routable and agree
// on digest.
func fleetReady(digest string, replicas int) func(healthz) bool {
	return func(h healthz) bool {
		return h.Status == "ok" && string(h.Ready) == strconv.Itoa(replicas) &&
			h.Total == replicas && !h.MixedDigest && h.Artifact == digest
	}
}

// waitReady waits until p prints its first line, which lamod serve and
// lamod gateway do once their model is loaded or their replicas named,
// just before they listen. Until then it blocks on the pipe rather than
// polling: a poller spinning on one of two cores would slow the start-up
// it times. It then polls p's /v1/healthz until ok accepts it. For the
// first second it polls back to back: a daemon is ready within
// milliseconds, and a sleep shorter than a millisecond oversleeps to about
// one, which would quantize set-up times. After that it polls every
// millisecond.
func (r *runner) waitReady(ctx context.Context, p *proc, ok func(healthz) bool) error {
	deadline := time.Now().Add(readyTimeout)
	t := time.NewTimer(readyTimeout)
	defer t.Stop()
	select {
	case <-p.line:
	case <-p.done: // reported below
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return fmt.Errorf("%s printed nothing in %s: %s", p.name, readyTimeout, p.logTail())
	}
	start := time.Now()
	var last error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.exited() {
			return fmt.Errorf("%s exited before ready (%v): %s", p.name, p.waitErr, p.logTail())
		}
		h, err := r.getHealthz(ctx, p.base)
		if err == nil && ok(h) {
			return nil
		}
		if err == nil {
			err = fmt.Errorf("not ready: %+v", h)
		}
		last = err
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s: %v", p.name, readyTimeout, last)
		}
		if time.Since(start) < time.Second {
			runtime.Gosched()
			continue
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return err
		}
	}
}

func (r *runner) getHealthz(ctx context.Context, base string) (healthz, error) {
	var h healthz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := r.probe.Do(req)
	if err != nil {
		return h, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return h, err
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.Unmarshal(body, &h)
}

// startServe starts one `lamod serve` on path and waits until it serves
// digest. It returns the stack and the time from exec to ready.
func (r *runner) startServe(ctx context.Context, name, path, digest string, reload bool) (*stack, time.Duration, error) {
	return retryPortClash(func() (*stack, time.Duration, error) {
		return r.startServeOnce(ctx, name, path, digest, reload)
	})
}

func (r *runner) startServeOnce(ctx context.Context, name, path, digest string, reload bool) (*stack, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"serve", "-artifact", path, "-addr", addr, "-log-level", "warn", "-drain", "1s"}
	if reload {
		args = append(args, "-reload")
	}
	t0 := time.Now()
	p, err := r.spawn(name, "http://"+addr, args...)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{procs: []*proc{p}, base: p.base}
	if err := r.waitReady(ctx, p, serveReady(digest)); err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// fleetReplicas is the number of `lamod serve -reload` replicas behind the
// gateway in the fleet-rollout workload.
const fleetReplicas = 2

// startFleet starts the replicas on path, then the gateway over them, and
// waits until the gateway reports every replica ready on digest. The
// set-up time runs from the first exec to that report.
func (r *runner) startFleet(ctx context.Context, path, digest string) (*stack, time.Duration, error) {
	return retryPortClash(func() (*stack, time.Duration, error) { return r.startFleetOnce(ctx, path, digest) })
}

func (r *runner) startFleetOnce(ctx context.Context, path, digest string) (*stack, time.Duration, error) {
	st := &stack{}
	fail := func(err error) (*stack, time.Duration, error) {
		st.stop()
		return nil, 0, err
	}
	t0 := time.Now()
	addrs, err := freeAddrs(fleetReplicas)
	if err != nil {
		return fail(err)
	}
	for i, addr := range addrs {
		p, err := r.spawn(fmt.Sprintf("replica%d", i), "http://"+addr,
			"serve", "-artifact", path, "-addr", addr, "-reload", "-log-level", "warn", "-drain", "1s")
		if err != nil {
			return fail(err)
		}
		st.procs = append(st.procs, p)
	}
	for _, p := range st.procs {
		if err := r.waitReady(ctx, p, serveReady(digest)); err != nil {
			return fail(err)
		}
	}
	gaddr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	gw, err := r.spawn("gateway", "http://"+gaddr,
		"gateway", "-replicas", strings.Join(addrs, ","), "-addr", gaddr, "-log-level", "warn", "-drain", "1s")
	if err != nil {
		return fail(err)
	}
	st.procs = append(st.procs, gw)
	st.base = gw.base
	if err := r.waitReady(ctx, gw, fleetReady(digest, fleetReplicas)); err != nil {
		return fail(err)
	}
	return st, time.Since(t0), nil
}

// portClashAttempts bounds the starts retryPortClash makes.
const portClashAttempts = 3

// retryPortClash calls start again, up to portClashAttempts times in all,
// while it fails because a child could not bind its port: between
// freeAddrs releasing a port and the child binding it, another socket of
// this machine may take the port.
func retryPortClash(start func() (*stack, time.Duration, error)) (*stack, time.Duration, error) {
	for attempt := 1; ; attempt++ {
		st, d, err := start()
		if err == nil || attempt == portClashAttempts || !strings.Contains(err.Error(), "address already in use") {
			return st, d, err
		}
	}
}

// setupGap brings a stack up and stops it n times, appending each set-up
// time to secs.
func (r *runner) setupGap(n int, secs *[]float64, start func() (*stack, time.Duration, error)) error {
	for i := 0; i < n; i++ {
		st, d, err := start()
		if err != nil {
			return err
		}
		st.stop()
		*secs = append(*secs, d.Seconds())
	}
	return nil
}

// perGap spreads total set-ups over gaps, at least one in each.
func perGap(total, gaps int) int {
	return max(1, (total+gaps-1)/gaps)
}

// postJSON posts body to url and returns the response body, failing on a
// non-200 status.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// cpuTicks is the host's CPU time so far, from the first line of
// /proc/stat: the time the hypervisor took from this machine's CPUs
// (steal) and the total.
type cpuTicks struct{ steal, total float64 }

// readCPUTicks reads /proc/stat; where it cannot, it returns zeros.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest ...]; the
	// guest times are already inside user and nice.
	f := strings.Fields(line)
	if len(f) < 9 {
		return cpuTicks{}
	}
	var t cpuTicks
	for _, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		t.steal = v // steal is the last of the eight
	}
	return t
}

// to returns the share of CPU time stolen between t and u (0 if unknown).
func (t cpuTicks) to(u cpuTicks) float64 {
	if u.total <= t.total {
		return 0
	}
	return (u.steal - t.steal) / (u.total - t.total)
}
