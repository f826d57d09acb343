package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's metric declarations; BENCHMARK.json repeats them (with
// direction and bound) and a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// e2eMetrics are measured with tracing off, on every workload. Each
// workload defines its unit operation: one `lamod build` (build), one
// GET /v1/predict (predict, fleet-rollout) or one POST /v1/query (query).
// Each timing is taken against a reference run in turns with the program
// on the same host: the replay server, or for build the reference job.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},               // exec → serving stack ready, median of the preset's set-ups
	{"latency_p50_ratio", "ratio"}, // open-loop median latency over the reference's; build time over the reference job's
	{"capacity_ratio", "ratio"},    // closed-loop requests per second over the reference's
	{"rss_mb", "MB"},               // peak resident set of the measured processes
}

// layerMetrics come from the traced run (-trace 1). A workload that
// bypasses a layer reports 0 for it.
var layerMetrics = []metricDef{
	{"dataset.new_mips_ms", "ms"},
	{"motif.find_s", "s"},
	{"motif.find_alloc_mb", "MB"},
	{"motif.uniqueness_s", "s"},
	{"motif.uniqueness_alloc_mb", "MB"},
	{"label.label_all_s", "s"},
	{"label.label_all_alloc_mb", "MB"},
	{"label.cluster_busy_s", "s"},
	{"label.cluster_occurrences", "count"},
	{"artifact.build_ms", "ms"},
	{"artifact.index_ms", "ms"},
	{"artifact.encode_ms", "ms"},
	{"artifact.write_ms", "ms"},
	{"build.unattributed_frac", "ratio"},
	{"build.trace_overhead_frac", "ratio"},
	{"artifact.decode_ms", "ms"},
	{"artifact.file_kb", "KB"},
	{"query.new_view_ms", "ms"},
	{"serve.new_ms", "ms"},
	{"serve.model_heap_mb", "MB"},
	{"serve.reload_ms", "ms"},
	{"serve.predict_handler_p50_us", "us"},
	{"serve.predict_handler_p99_us", "us"},
	{"serve.predict_allocs_per_req", "count"},
	{"artifact.ranking_ns", "ns"},
	{"http.predict_overhead_p50_us", "us"},
	{"query.execute_p50_us", "us"},
	{"query.execute_p99_us", "us"},
	{"query.write_p50_us", "us"},
	{"query.op_busy_us.scan", "us"},
	{"query.op_busy_us.filter", "us"},
	{"query.op_busy_us.topk", "us"},
	{"query.op_busy_us.emit", "us"},
	{"serve.query_handler_p50_us", "us"},
	{"serve.query_handler_p99_us", "us"},
	{"fleet.relay_p50_us", "us"},
	{"fleet.relay_p99_us", "us"},
	{"fleet.attempts_per_req", "ratio"},
	{"fleet.hedges_per_req", "ratio"},
	{"fleet.hedge_win_ratio", "ratio"},
	{"fleet.retries", "count"},
	{"fleet.ring_owner_ns", "ns"},
	{"fleet.rollout_ms", "ms"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.queue_p99_us", "us"},
	{"loadgen.service_p50_us", "us"},
	{"loadgen.service_p99_us", "us"},
	{"trace.unattributed_frac", "ratio"},
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// orderedMetrics renders as a JSON object whose keys keep declaration
// order, so every run prints its metrics in the same order.
type orderedMetrics struct {
	defs []metricDef
	vals []float64
}

// collect picks each declared metric out of vals. Missing end-to-end
// metrics are an error; a missing layer metric is a bypassed layer and
// reads 0.
func collect(defs []metricDef, vals map[string]float64, required bool) (orderedMetrics, error) {
	om := orderedMetrics{defs: defs, vals: make([]float64, len(defs))}
	for i, d := range defs {
		v, ok := vals[d.name]
		if !ok && required {
			return om, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return om, fmt.Errorf("metric %s is %v", d.name, v)
		}
		om.vals[i] = v
	}
	return om, nil
}

func (om orderedMetrics) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, d := range om.defs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(d.name)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(metricValue{Value: om.vals[i], Unit: d.unit})
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// formatValue prints a metric with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
