//go:build e2e

// Package e2e drives the lamod and lamoctl binaries end to end: it builds
// an artifact, serves it from a daemon or a gateway over replicas, and
// checks what the daemons answer and what lamoctl prints. It also runs the
// programs under examples/ and compares what they print with goldens.
// Every file is a test file behind the e2e build tag, so plain `go
// build/vet/test ./...` skip it. Run it with `make e2e`.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	lamod, lamoctl string // the binaries TestMain builds
	artPath        string // the quick artifact TestMain builds with buildArgs
	buildOut       string // what that build printed
)

// buildArgs are the flags of the shared quick build. TestFleet rebuilds
// with the same flags and expects the same digest.
var buildArgs = []string{"build", "-quick", "-note", "e2e", "-stats"}

// client is the tests' own HTTP client, for the traffic lamoctl does not
// send.
var client = &http.Client{Timeout: 10 * time.Second}

// TestMain builds lamod, lamoctl and the examples once, and the quick
// artifact every test serves.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lamofinder-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := setup(dir)
	if code == 0 {
		code = m.Run()
	}
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

func setup(dir string) int {
	lamod, lamoctl = filepath.Join(dir, "lamod"), filepath.Join(dir, "lamoctl")
	artPath = filepath.Join(dir, "model.lamoart")
	out, err := exec.Command("go", "build", "-o", dir+"/", "lamofinder/cmd/lamod", "lamofinder/cmd/lamoctl", "lamofinder/examples/...").CombinedOutput()
	if err == nil {
		out, err = exec.Command(lamod, append(buildArgs, "-out", artPath)...).CombinedOutput()
		buildOut = string(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e setup: %v\n%s", err, out)
		return 1
	}
	return 0
}

// proc is one lamod child serving on a loopback port, logging stdout and
// stderr to one file.
type proc struct {
	name, url, log string
	cmd            *exec.Cmd
	done           chan struct{} // closed once the child has been waited for
	err            error         // the child's exit status, set before done closes
}

// start runs `lamod args... -addr <port>` on a reserved loopback port and
// waits until its /v1/healthz answers 200. Between the reservation and the
// child's bind another socket may take the port, so a child that fails
// with "address already in use" is started again on a new one. The child
// is killed when the test ends, and its log tail printed if the test
// failed.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	for attempt := 1; ; attempt++ {
		p, err := startOnce(t, name, args)
		if err == nil {
			return p
		}
		if attempt == 3 || !strings.Contains(err.Error(), "address already in use") {
			t.Fatal(err)
		}
	}
}

func startOnce(t *testing.T, name string, args []string) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	_ = l.Close()
	p := &proc{name: name, url: "http://" + addr, log: filepath.Join(t.TempDir(), name+".log"), done: make(chan struct{})}
	f, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	p.cmd = exec.Command(lamod, append(args, "-addr", addr)...)
	p.cmd.Stdout, p.cmd.Stderr = f, f
	if err := p.cmd.Start(); err != nil {
		_ = f.Close()
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		_ = f.Close()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill() // already gone after a clean stop
		<-p.done
		if t.Failed() {
			t.Logf("%s log tail:\n%s", name, p.tail())
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before it was healthy (%v): %s", name, p.err, p.tail())
		default:
		}
		if fetch(http.MethodGet, p.url+"/v1/healthz", "") == nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not healthy after 30s: %s", name, p.tail())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startFleet starts three replicas serving the shared artifact, with
// extra serve flags, and a gateway over them.
func startFleet(t *testing.T, extra ...string) (replicas []*proc, gw *proc) {
	t.Helper()
	var urls []string
	for i := 0; i < 3; i++ {
		args := append([]string{"serve", "-artifact", artPath, "-log-level", "warn"}, extra...)
		replicas = append(replicas, start(t, fmt.Sprintf("replica%d", i), args...))
		urls = append(urls, replicas[i].url)
	}
	return replicas, start(t, "gateway", "gateway", "-replicas", strings.Join(urls, ","), "-log-level", "warn")
}

// stop sends SIGTERM and requires a graceful drain: exit status 0 and
// "shut down cleanly" in the log.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal %s: %v", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s ignored SIGTERM", p.name)
	}
	if p.err != nil {
		t.Fatalf("%s exited with %v", p.name, p.err)
	}
	contains(t, p.logText(t), "shut down cleanly")
}

func (p *proc) logText(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(p.log)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tail returns the last lines of the child's log.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log) // best effort: only decorates a failure
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// run runs prog with args and returns its stdout; a non-zero exit fails
// the test.
func run(t *testing.T, prog string, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(prog, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(prog), strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out)
}

// inspect reads an artifact's summary offline through lamoctl.
func inspect(t *testing.T, path string) (sum struct {
	Artifact string
	Proteins int
}) {
	t.Helper()
	if err := json.Unmarshal([]byte(run(t, lamoctl, "inspect", "-artifact", path)), &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// fetch sends one request and returns an error unless the answer is 200.
func fetch(method, url, body string) error {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, b)
	}
	return err
}

// contains fails the test unless out contains every sub.
func contains(t *testing.T, out string, subs ...string) {
	t.Helper()
	for _, s := range subs {
		if !strings.Contains(out, s) {
			t.Errorf("output lacks %q:\n%s", s, out)
		}
	}
}

// matches fails the test unless some line of out matches each pattern.
func matches(t *testing.T, out string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile("(?m)" + p).MatchString(out) {
			t.Errorf("no line matches %q:\n%s", p, out)
		}
	}
}

// countLines counts the lines of out that match pattern.
func countLines(out, pattern string) int {
	return len(regexp.MustCompile("(?m)"+pattern).FindAllString(out, -1))
}
