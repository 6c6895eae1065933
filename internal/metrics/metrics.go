// Package metrics is the first-class measurement surface of the simulator:
// a registry of counters, gauges, and log2-bucketed histograms whose hot
// path is pure atomics — no locks, no maps, no allocation — so instruments
// can be fed from inside the simulation's probe/observer callbacks without
// perturbing it. Instruments attach to a machine through the same
// nil-guarded cpu.Probe / coherence.Observer tee seams the tracer uses
// (see Attach in collector.go), so a registry coexists with the oracle and
// the tracer; a detached registry costs the simulation one nil pointer
// comparison per hook site. It is the one online tally of a run; the
// offline one is trace.BuildProfile.
//
// Exposition: WriteProm renders the Prometheus text format; Snapshot
// returns a JSON-friendly view with derived quantiles. Both are served by
// clearbench -serve as /metrics and /metrics.json.
//
// Transparency contract: instruments never mutate simulation state,
// consult no RNG, and schedule no events — statistics digests are
// bit-identical with the registry attached or detached
// (TestMetricsDigestTransparency).
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to an instrument at
// registration time. Labels are rendered once into the exposition string;
// the hot path never touches them.
type Label struct{ Key, Value string }

// histBuckets is the number of log2 histogram buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]
// (bucket 0 holds v == 0), capped so every uint64 fits.
const histBuckets = 64

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable signed value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a log2-bucketed distribution of uint64 observations
// (tick durations, line counts, burst lengths). Observe is wait-free:
// two atomic adds plus a bounded max update.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
	max     atomic.Uint64
}

// Observe files one observation.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile returns an upper bound on the q-th quantile (q in [0,1]): the
// top of the log2 bucket holding that rank, clamped to the observed max.
func (h *Histogram) Quantile(q float64) uint64 {
	var total uint64
	var counts [histBuckets]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen > rank {
			ub := bucketUpper(i)
			if m := h.max.Load(); ub > m {
				ub = m
			}
			return ub
		}
	}
	return h.max.Load()
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) uint64 {
	if i >= histBuckets-1 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(i)) - 1
}

// entry is one registered instrument.
type entry struct {
	name   string // family name, e.g. "clear_commits_total"
	help   string
	labels string // rendered `k="v",...` (no braces), "" when unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns a set of instruments. Registration takes a mutex and may
// allocate; reading and writing registered instruments is lock-free.
// One registry may be shared by many concurrent runs (the cells of a
// clearbench matrix): counters simply aggregate across them.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	index   map[string]*entry // name + "{" + labels + "}"

	instOnce sync.Once
	inst     *Instruments
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*entry)}
}

// renderLabels produces the canonical exposition form of a label set,
// sorted by key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// register returns the existing entry for (name, labels) or creates one.
// Registering the same series under a different kind is a programming
// error and panics.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *entry {
	key := name + "{" + renderLabels(labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", key, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, help: help, labels: renderLabels(labels), kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{}
	}
	r.entries = append(r.entries, e)
	r.index[key] = e
	return e
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels).c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels).g
}

// Histogram registers (or returns the existing) histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels).h
}
