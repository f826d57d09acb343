//go:build e2e

package e2e

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestFleet rolls three reloadable replicas behind a gateway to a rebuilt
// artifact under load: no request fails, the served bytes stay the same,
// and the fleet ends uniform.
func TestFleet(t *testing.T) {
	t.Parallel()
	// The digest covers the model, not the build timing, so a rebuild with
	// the same flags and note keeps it. It lands beside the served artifact,
	// inside the replicas' default reload directory.
	rebuilt := filepath.Join(filepath.Dir(artPath), "fleet.lamoart")
	run(t, lamod, append(buildArgs, "-out", rebuilt)...)
	digest := inspect(t, artPath).Artifact
	if got := inspect(t, rebuilt).Artifact; digest == "" || got != digest {
		t.Fatalf("a same-config rebuild changed the digest: %s vs %s", digest, got)
	}

	replicas, gw := startFleet(t, "-reload")
	health := run(t, lamoctl, "health", "-server", gw.url)
	matches(t, health, "^artifact="+digest+" ")
	contains(t, health, `"ready":3`)
	uniform := func() {
		table := run(t, lamoctl, "fleet", "-table", "-server", gw.url)
		if n := countLines(table, " ready "); n != 3 {
			t.Errorf("%d replicas ready, want 3:\n%s", n, table)
		}
		matches(t, table, "^artifact="+digest+" mixed_digest=false")
	}
	uniform()
	predict := []string{"predict", "-server", gw.url, "-protein", "M0000", "-k", "5"}
	before := run(t, lamoctl, predict...)
	contains(t, before, `"protein":"M0000"`, digest)

	// A closed load loop runs through the whole rollout.
	ctx, cancel := context.WithCancel(context.Background())
	var ok, failed atomic.Int64
	loaded := make(chan struct{})
	t.Cleanup(func() { cancel(); <-loaded })
	go func() {
		defer close(loaded)
		proteins := []string{"M0000", "M0007", "M0042", "M0100", "M0311"}
		for i := 0; ctx.Err() == nil; i++ {
			if err := fetch(http.MethodGet, gw.url+"/v1/predict?k=5&protein="+proteins[i%5], ""); err != nil {
				failed.Add(1)
				t.Log(err)
			} else {
				ok.Add(1)
			}
		}
	}()
	rollout := run(t, lamoctl, "rollout", "-server", gw.url, "-artifact", rebuilt, "-digest", digest)
	cancel()
	<-loaded
	contains(t, rollout, `"artifact":"`+digest+`"`)
	if n := countLines(rollout, `"replica":`); n != 3 {
		t.Errorf("rollout reports %d replica steps, want 3:\n%s", n, rollout)
	}
	if failed.Load() > 0 || ok.Load() == 0 {
		t.Errorf("load loop during the rollout: %d ok, %d failed", ok.Load(), failed.Load())
	}

	if after := run(t, lamoctl, predict...); after != before {
		t.Errorf("served bytes changed over the rollout:\n%s\n%s", before, after)
	}
	prom := run(t, lamoctl, "prom", "-server", gw.url)
	matches(t, prom, `^lamod_fleet_mixed_digest 0$`, `^lamod_fleet_rollouts_total 1$`)
	if n := countLines(prom, `^lamod_fleet_replica_up\{[^}]*\} 1$`); n != 3 {
		t.Errorf("%d replicas up, want 3", n)
	}
	uniform()

	gw.stop(t)
	for _, r := range replicas {
		r.stop(t)
	}
}

// TestTrace follows traced requests: a predict's span tree on one daemon,
// -explain on a query, a trace-ID exemplar on /metrics, and one merged
// gateway and replica trace through a fleet.
func TestTrace(t *testing.T) {
	t.Parallel()
	d := start(t, "lamod", "serve", "-artifact", artPath, "-exemplars", "-log-level", "warn")
	// A valid client X-Request-Id forces sampling; the same ID then fetches
	// the span tree.
	run(t, lamoctl, "predict", "-server", d.url, "-trace", "e2e-predict-1", "-protein", "M0000", "-k", "5")
	contains(t, run(t, lamoctl, "trace", "e2e-predict-1", "-server", d.url), `"trace":"e2e-predict-1"`,
		`"name":"predict"`, `"name":"parse"`, `"name":"rank"`, `"name":"encode"`)
	// Children are indented under the predict root.
	matches(t, run(t, lamoctl, "trace", "e2e-predict-1", "-table", "-server", d.url),
		`^trace=e2e-predict-1 spans=`, `^  (parse|rank|encode)`)
	contains(t, run(t, lamoctl, "trace", "-table", "-server", d.url), "e2e-predict-1")

	q := []string{"query", "-server", d.url, "-topk", "3"}
	first := run(t, lamoctl, q...)
	if again := run(t, lamoctl, q...); again != first {
		t.Errorf("the same query answered different bytes:\n%s\n%s", first, again)
	}
	if strings.Contains(first, `"explain"`) {
		t.Errorf("a plain query carries explain stats:\n%s", first)
	}
	matches(t, run(t, lamoctl, append(q, "-explain")...), `^OP`, `^scan`, `^emit`, `wall_us=`)
	contains(t, run(t, lamoctl, "prom", "-server", d.url), `# {trace_id="e2e-predict-1"}`)

	_, gw := startFleet(t)
	run(t, lamoctl, "predict", "-server", gw.url, "-trace", "e2e-fleet-1", "-protein", "M0000", "-k", "5")
	// The owning replica's spans are merged in by ID and nest under the
	// gateway's attempt span through remote_parent.
	contains(t, run(t, lamoctl, "trace", "e2e-fleet-1", "-server", gw.url), `"trace":"e2e-fleet-1"`,
		`"name":"predict"`, `"name":"attempt"`, `"replicas":[{"replica":"http://`, `"remote_parent":`, `"name":"rank"`)
	table := run(t, lamoctl, "trace", "e2e-fleet-1", "-table", "-server", gw.url)
	matches(t, table, `^trace=e2e-fleet-1 spans=`)
	contains(t, table, "attempt", "replica http://", "rank")
}
