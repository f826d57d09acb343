package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// The replay server is the serve workloads' reference. It answers every
// request template with the oracle's bytes for it, over the same HTTP
// stack, loopback network and load generator as the program, and does
// nothing else.

// replayFile is what the replay server serves.
type replayFile struct {
	Digest    string        `json:"digest"`
	Responses []replayEntry `json:"responses"`
}

type replayEntry struct {
	Method string `json:"method"`
	Path   string `json:"path"`
	Body   []byte `json:"body,omitempty"`
	Resp   []byte `json:"resp"`
}

func replayKey(method, uri string, body []byte) string {
	return method + " " + uri + "\n" + string(body)
}

// runReplay is `bench replay -addr ADDR -responses FILE`: it serves the
// replay file until SIGTERM. /v1/healthz reports ready on the file's
// digest, as lamod serve does.
func runReplay(args []string) int {
	fs := flag.NewFlagSet("bench replay", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	file := fs.String("responses", "", "replay file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serveReplay(*addr, *file); err != nil {
		fmt.Fprintf(os.Stderr, "bench replay: %v\n", err)
		return 1
	}
	return 0
}

func serveReplay(addr, file string) error {
	b, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var rf replayFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	bodies := make(map[string][]byte, len(rf.Responses))
	for _, e := range rf.Responses {
		bodies[replayKey(e.Method, e.Path, e.Body)] = e.Resp
	}
	health, err := json.Marshal(healthz{Status: "ok", Ready: json.RawMessage("true"), Artifact: rf.Digest})
	if err != nil {
		return err
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		resp := health
		if req.URL.Path != "/v1/healthz" {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var ok bool
			if resp, ok = bodies[replayKey(req.Method, req.URL.RequestURI(), body)]; !ok {
				http.Error(w, "no such request template", http.StatusNotFound)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(resp) // a failed write is the client's to see
	})
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %d responses on %s\n", len(bodies), l.Addr())
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err = srv.Shutdown(sctx)
	if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// startReplay writes the replay file of reqs and their bodies and starts
// the replay server on it, as a child process of this program.
func (r *runner) startReplay(ctx context.Context, digest string, reqs []request, bodies [][]byte) (*stack, error) {
	rf := replayFile{Digest: digest}
	for i, rq := range reqs {
		rf.Responses = append(rf.Responses, replayEntry{Method: rq.method, Path: rq.path, Body: rq.body, Resp: bodies[i]})
	}
	b, err := json.Marshal(&rf)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.work, "run", "replay.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	st, _, err := retryPortClash(func() (*stack, time.Duration, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		p, err := r.spawnProg(self, "replay", "http://"+addr, "replay", "-addr", addr, "-responses", path)
		if err != nil {
			return nil, 0, err
		}
		st := &stack{procs: []*proc{p}, base: p.base}
		if err := r.waitReady(ctx, p, serveReady(digest)); err != nil {
			st.stop()
			return nil, 0, err
		}
		return st, 0, nil
	})
	return st, err
}
