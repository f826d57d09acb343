package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"lamofinder/internal/artifact"
	"lamofinder/internal/query"
	"lamofinder/internal/serve"
)

// Request pools: each run draws its requests from a seeded pool of
// distinct templates whose expected responses are computed before timing.
const (
	predictPool = 2048
	queryPool   = 256 // 64 of each query kind, so a seed's mix costs about the same as another's
	seqLen      = 1 << 16
	predictK    = 5
)

// request is one prepared HTTP request template.
type request struct {
	method, path string
	body         []byte
	key          string // the fleet's affinity key: the first protein named
}

func (rq request) newRequest(ctx context.Context, base string) (*http.Request, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, base+rq.path, body)
	if err != nil {
		return nil, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

func proteinNames(art *artifact.Artifact) []string {
	names := make([]string, art.Graph.N())
	for v := range names {
		names[v] = art.Graph.Name(v)
	}
	return names
}

// predictRequests draws GET /v1/predict templates: 1–8 proteins (one with
// probability ½, else 2–8 uniformly), each uniform over the network, k=5.
func predictRequests(rng *rand.Rand, names []string, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		count := 1
		if rng.IntN(2) == 1 {
			count = 2 + rng.IntN(7)
		}
		var b strings.Builder
		b.WriteString("/v1/predict?")
		var key string
		for j := 0; j < count; j++ {
			name := names[rng.IntN(len(names))]
			if j == 0 {
				key = name
			}
			b.WriteString("protein=")
			b.WriteString(url.QueryEscape(name))
			b.WriteByte('&')
		}
		fmt.Fprintf(&b, "k=%d", predictK)
		reqs[i] = request{method: http.MethodGet, path: b.String(), key: key}
	}
	return reqs
}

// queryPlans draws n bulk plans, a quarter of each kind in rotation: a
// top-k scan of every protein, a degree+annotation filtered scan, a
// per-category top-k, and a pinned 8-protein score table.
func queryPlans(rng *rand.Rand, names []string, n int) []query.Plan {
	plans := make([]query.Plan, n)
	f := func(v float64) *float64 { return &v }
	no := false
	for i := range plans {
		switch i % 4 {
		case 0:
			plans[i] = query.Plan{TopK: 1 + rng.IntN(5)}
		case 1:
			plans[i] = query.Plan{Filter: []query.Predicate{
				{Field: "degree", Op: "ge", Value: f(float64(1 + rng.IntN(4)))},
				{Field: "annotated", Op: "eq", Bool: &no},
			}}
		case 2:
			plans[i] = query.Plan{GroupBy: "category", TopK: 5 + rng.IntN(16)}
		default:
			pinned := make([]string, 8)
			for j := range pinned {
				pinned[j] = names[rng.IntN(len(names))]
			}
			plans[i] = query.Plan{Filter: []query.Predicate{{Field: "protein", Op: "in", Names: pinned}}}
		}
	}
	return plans
}

func queryRequests(plans []query.Plan) ([]request, error) {
	reqs := make([]request, len(plans))
	for i := range plans {
		body, err := json.Marshal(&plans[i])
		if err != nil {
			return nil, err
		}
		reqs[i] = request{method: http.MethodPost, path: "/v1/query", body: body}
	}
	return reqs, nil
}

// sequence draws n template indices uniformly from [0, pool).
func sequence(rng *rand.Rand, pool, n int) []int32 {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(rng.IntN(pool))
	}
	return seq
}

// expectedBodies is the oracle: the bytes an in-process daemon over art
// answers each template with. Every response on the wire must equal them.
func expectedBodies(art *artifact.Artifact, reqs []request) ([][]byte, error) {
	s, err := serve.New(art, serve.Config{TraceSampleEvery: -1})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	h := s.Handler()
	out := make([][]byte, len(reqs))
	for i, rq := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, rq.httptest())
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("oracle: %s %s: status %d: %s", rq.method, rq.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		out[i] = rec.Body.Bytes()
	}
	return out, nil
}

func (rq request) httptest() *http.Request {
	var req *http.Request
	if rq.body != nil {
		req = httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(rq.method, rq.path, nil)
	}
	return req
}

// matchAny returns a check accepting a body equal to the expected bytes of
// template t under any of the given oracles.
func matchAny(oracles ...[][]byte) func(int, []byte) error {
	return func(t int, body []byte) error {
		for _, exp := range oracles {
			if bytes.Equal(body, exp[t]) {
				return nil
			}
		}
		return fmt.Errorf("template %d: response differs from the oracle (%d bytes)", t, len(body))
	}
}
