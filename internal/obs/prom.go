package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// (format version 0.0.4) that Exposition renders.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry is one process's metric declarations. Each series is declared
// once — Prometheus name, type and help text and its value source — and
// Exposition renders that list in declaration order as the /metrics text.
// Declare every series before serving; rendering is then safe from any
// goroutine.
// Metric names must match [a-z_]+ by project convention (the smoke test
// greps for exactly that), so keep names lowercase and digit-free.
type Registry struct {
	series []series
}

type series struct {
	name, typ, help string

	// Exactly one value source is set.
	int     func() int64
	float   func() float64
	labels  []string                                   // label names of samples
	samples func(emit func(v int64, values ...string)) // a labeled gauge
	fam     *Family
}

// Counter declares a counter the caller increments.
func (r *Registry) Counter(name, help string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.Func("counter", name, help, c.Load)
	return c
}

// Func declares a counter or gauge (typ) whose value f reads at render
// time.
func (r *Registry) Func(typ, name, help string, f func() int64) {
	r.series = append(r.series, series{name: name, typ: typ, help: help, int: f})
}

// FloatFunc is Func for a value with a fractional part.
func (r *Registry) FloatFunc(typ, name, help string, f func() float64) {
	r.series = append(r.series, series{name: name, typ: typ, help: help, float: f})
}

// Gauges declares a gauge whose samples are only known at
// render time: f calls emit once per sample, with one value per label
// name. Label values are escaped at render, so they may hold any string.
func (r *Registry) Gauges(name, help string, labels []string, f func(emit func(v int64, values ...string))) {
	r.series = append(r.series, series{name: name, typ: "gauge", help: help, labels: labels, samples: f})
}

// Histograms declares a latency histogram family over fixed label values:
// slot i is values[i]'s histogram. Exposition renders the slots in order:
// every slot when all is set, otherwise only those with samples.
func (r *Registry) Histograms(name, help, label string, values []string, all bool) *Family {
	f := &Family{
		label:  label,
		values: values,
		all:    all,
		hists:  make([]Histogram, len(values)),
		ex:     make([]Exemplar, len(values)),
	}
	r.series = append(r.series, series{name: name, typ: "histogram", help: help, fam: f})
	return f
}

// Family is a declared histogram family: per label value, one latency
// histogram and the exemplar cell for its most recent traced sample.
type Family struct {
	label  string
	values []string
	all    bool
	hists  []Histogram
	ex     []Exemplar
}

// Hist returns slot i's histogram.
//
// alloc-budget: 0
func (f *Family) Hist(i int) *Histogram { return &f.hists[i] }

// Exemplar returns slot i's exemplar cell.
//
// alloc-budget: 0
func (f *Family) Exemplar(i int) *Exemplar { return &f.ex[i] }

// Merged sums every slot into one distribution.
func (f *Family) Merged() HistSnapshot {
	var s HistSnapshot
	for i := range f.hists {
		s.Merge(f.hists[i].Snapshot())
	}
	return s
}

// labelEscaper escapes a label value for the text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelPair renders one `name="value"` label pair.
func labelPair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// Exposition appends every series to buf in Prometheus text format.
// Histograms carry cumulative le buckets in seconds. With exemplars, each
// slot's most recent traced sample annotates the one bucket holding it,
// in OpenMetrics syntax:
//
//	name_bucket{le="0.001024"} 17 # {trace_id="lamod-42"} 0.000731
//
// Classic text-format parsers read "#" as a comment, so exemplars are
// opt-in and the default exposition stays byte-compatible with every
// existing scrape assertion.
func (r *Registry) Exposition(buf []byte, exemplars bool) []byte {
	for i := range r.series {
		s := &r.series[i]
		buf = append(buf, "# HELP "+s.name+" "+s.help+"\n# TYPE "+s.name+" "+s.typ+"\n"...)
		switch {
		case s.int != nil:
			buf = appendSample(buf, s.name, "", s.int())
		case s.float != nil:
			buf = appendSampleName(buf, s.name, "")
			buf = strconv.AppendFloat(buf, s.float(), 'g', -1, 64)
			buf = append(buf, '\n')
		case s.samples != nil:
			s.samples(func(v int64, values ...string) {
				pairs := make([]string, len(values))
				for j, val := range values {
					pairs[j] = labelPair(s.labels[j], val)
				}
				buf = appendSample(buf, s.name, strings.Join(pairs, ","), v)
			})
		default:
			f := s.fam
			for j := range f.hists {
				hs := f.hists[j].Snapshot()
				if hs.Count == 0 && !f.all {
					continue
				}
				var ex *Exemplar
				if exemplars {
					ex = &f.ex[j]
				}
				buf = appendHistogram(buf, s.name, labelPair(f.label, f.values[j]), hs, ex)
			}
		}
	}
	return buf
}

func appendSampleName(buf []byte, name, labels string) []byte {
	buf = append(buf, name...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	return append(buf, ' ')
}

func appendSample(buf []byte, name, labels string, v int64) []byte {
	buf = appendSampleName(buf, name, labels)
	buf = strconv.AppendInt(buf, v, 10)
	return append(buf, '\n')
}

// appendHistogram appends one histogram slot: cumulative le buckets in
// seconds, then _sum and _count. labels are the slot's rendered pairs (or
// ""), placed before the le pair. A non-nil ex with a recorded sample
// annotates the bucket whose range contains it.
func appendHistogram(buf []byte, name, labels string, s HistSnapshot, ex *Exemplar) []byte {
	id, us, ok := ex.Get()
	exBucket := -1
	if ok {
		exBucket = bucketIndex(us)
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		buf = append(buf, name...)
		buf = append(buf, "_bucket{"...)
		if labels != "" {
			buf = append(buf, labels...)
			buf = append(buf, ',')
		}
		buf = append(buf, `le="`...)
		if i < NumBuckets-1 {
			buf = strconv.AppendFloat(buf, float64(BucketBound(i))/1e6, 'g', -1, 64)
		} else {
			buf = append(buf, "+Inf"...)
		}
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, cum, 10)
		if i == exBucket {
			buf = append(buf, ` # {trace_id="`...)
			buf = append(buf, id...)
			buf = append(buf, `"} `...)
			buf = strconv.AppendFloat(buf, float64(us)/1e6, 'g', -1, 64)
		}
		buf = append(buf, '\n')
	}
	buf = appendSampleName(buf, name+"_sum", labels)
	buf = strconv.AppendFloat(buf, float64(s.SumMicros)/1e6, 'g', -1, 64)
	buf = append(buf, '\n')
	return appendSample(buf, name+"_count", labels, s.Count)
}
