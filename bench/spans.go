package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Spans of one run share Run, the id of that
// run's harness.run span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Run    int    `json:"run,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark writes them out. It is
// safe for the sweep workers to use at once; a nil log records nothing.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	run := 0
	if name == "harness.run" {
		run = id
	} else if parent > 0 {
		run = l.spans[parent-1].Run
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: now})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the kids' intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

func (l *spanLog) write(path string, header map[string]any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	header["spans"] = l.spans
	data, err := json.Marshal(header)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memorySize is the simulated memory harness.Run builds every run over;
// replay must use the same size, or allocations land elsewhere and the
// digest changes.
const memorySize = 0x100000

// replay executes p through the same public calls, in the same order, as
// harness.Run does for a run with no tracer, oracle, watchdog or fault
// plan, with a span around each call. It returns the RunResult
// harness.Run would and the number of simulation events executed.
func replay(p harness.RunParams, l *spanLog, parent int) (*harness.RunResult, uint64, error) {
	id := l.begin("workload.setup", parent)
	bench, err := workload.New(p.Benchmark)
	if err != nil {
		return nil, 0, err
	}
	memory := mem.NewMemory(memorySize)
	rng := sim.NewRNG(p.Seed)
	err = bench.Setup(memory, rng, p.Cores)
	l.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("setup %s: %w", p.Benchmark, err)
	}

	id = l.begin("cpu.build", parent)
	machine, err := cpu.NewMachine(p.SystemConfig(), memory)
	l.end(id)
	if err != nil {
		return nil, 0, err
	}

	id = l.begin("workload.feed", parent)
	feeds := make([]cpu.InvocationSource, p.Cores)
	for tid := range feeds {
		feeds[tid] = bench.Source(tid, rng.Split(), p.OpsPerThread)
	}
	machine.AttachFeeds(feeds)
	l.end(id)

	id = l.begin("sim.run", parent)
	err = machine.Run(p.MaxTicks)
	l.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("%s/%s seed %d: %w", p.Benchmark, p.Config, p.Seed, err)
	}

	id = l.begin("workload.verify", parent)
	err = bench.Verify(memory)
	l.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("%s/%s seed %d: verification failed: %w", p.Benchmark, p.Config, p.Seed, err)
	}
	return &harness.RunResult{
		Params: p,
		Stats:  machine.Stats,
		Dir:    machine.Dir.Stats,
		Energy: stats.DefaultEnergyModel().Energy(machine.Stats, machine.Dir.Stats, p.Cores),
	}, machine.Engine.Executed, nil
}

// spanBackend wraps a run store so that each lookup gets a runstore.get
// span under the run that made it, and counts hits and misses.
type spanBackend struct {
	runstore.Backend
	log    *spanLog
	parent int
	tally  *tally
}

func (b spanBackend) Get(key string) ([]byte, bool, error) {
	id := b.log.begin("runstore.get", b.parent)
	payload, ok, err := b.Backend.Get(key)
	b.log.end(id)
	if ok {
		b.tally.add("runstore.hits", 1)
	} else {
		b.tally.add("runstore.misses", 1)
	}
	return payload, ok, err
}
