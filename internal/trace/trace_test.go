package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/coherence"
	clear "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

func lockOK() coherence.LockResult    { return coherence.LockResult{} }
func lockRetry() coherence.LockResult { return coherence.LockResult{Retry: true} }

// newTestMachine builds a small idle machine to host a tracer (the tests
// drive the probe/observer callbacks by hand).
func newTestMachine(t testing.TB, cores int) *cpu.Machine {
	t.Helper()
	cfg := cpu.DefaultSystemConfig()
	cfg.Cores = cores
	m, err := cpu.NewMachine(cfg, mem.NewMemory(0x10000))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func attachTest(t testing.TB, m *cpu.Machine, w io.Writer, opts Options) *Tracer {
	t.Helper()
	tr, err := Attach(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestHeaderRoundTrip checks the header encodes and decodes losslessly.
func TestHeaderRoundTrip(t *testing.T) {
	m := newTestMachine(t, 4)
	var buf bytes.Buffer
	opts := Options{
		Benchmark:   "sorted-list",
		Config:      "W",
		Seed:        42,
		ARNames:     map[int]string{1: "sorted-list/insert", 7: "sorted-list/count"},
		MemAccesses: true,
	}
	tr := attachTest(t, m, &buf, opts)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	meta := rd.Meta()
	if meta.Benchmark != "sorted-list" || meta.Config != "W" || meta.Seed != 42 ||
		meta.Cores != 4 || !meta.MemAccesses || meta.DirAccesses {
		t.Fatalf("meta mismatch: %+v", meta)
	}
	if meta.ARNames[7] != "sorted-list/count" || meta.ARName(99) != "ar99" {
		t.Fatalf("AR names mismatch: %+v", meta.ARNames)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want clean EOF after header, got %v", err)
	}
}

// TestEventRoundTrip drives every probe/observer callback once and checks
// the decoded events against the packed-field accessors.
func TestEventRoundTrip(t *testing.T) {
	m := newTestMachine(t, 4)
	var buf bytes.Buffer
	tr := attachTest(t, m, &buf, Options{
		ARNames:     map[int]string{3: "ar-three"},
		MemAccesses: true,
		DirAccesses: true,
	})

	tr.OnInvocationStart(2, 3)
	tr.OnAttemptStart(2, cpu.ModeSpeculative, 0, nil)
	tr.OnMemAccess(2, mem.Addr(0x1008), 99, false, cpu.ModeSpeculative)
	tr.OnMemAccess(2, mem.Addr(0x1010), 7, true, cpu.ModeSpeculative)
	tr.OnConflict(2, mem.LineAddr(0x40), true, 1)
	tr.OnAttemptEnd(cpu.AttemptEndInfo{
		Core: 2, ProgID: 3, Attempt: 0,
		Mode:            cpu.ModeFailedDiscovery,
		Reason:          htm.AbortMemoryConflict,
		PC:              14,
		ConflictRetries: 1,
		NextMode:        clear.RetrySCL,
		Assessed:        true,
		Assessment:      clear.Assessment{Convertible: true, Mode: clear.RetrySCL},
	})
	tr.OnAttemptStart(2, cpu.ModeSCL, 1, []mem.LineAddr{0x40, 0x41, 0x42})
	tr.OnCommit(cpu.CommitInfo{
		Core: 2, ProgID: 3, Attempt: 1, Mode: cpu.ModeSCL,
		ConflictRetries: 1, StoreLines: []mem.LineAddr{0x40, 0x42},
	})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("want 8 events, got %d", len(evs))
	}
	if evs[0].Kind != KindInvocationStart || evs[0].ProgID() != 3 || evs[0].Core != 2 {
		t.Fatalf("invoke mismatch: %+v", evs[0])
	}
	if e := evs[1]; e.Kind != KindAttemptStart || e.Mode() != cpu.ModeSpeculative ||
		e.Attempt() != 0 || e.Retries() != 0 || e.FootprintLen() != 0 {
		t.Fatalf("attempt-start mismatch: %+v", e)
	}
	if e := evs[2]; e.Kind != KindMemAccess || e.IsWrite() || e.Value() != 99 ||
		e.MemAddr() != 0x1008 || e.Line() != mem.Addr(0x1008).Line() {
		t.Fatalf("load mismatch: %+v", e)
	}
	if e := evs[3]; !e.IsWrite() || e.Value() != 7 {
		t.Fatalf("store mismatch: %+v", e)
	}
	if e := evs[4]; e.Kind != KindConflict || !e.IsWrite() || e.Requester() != 1 ||
		e.Line() != 0x40 {
		t.Fatalf("conflict mismatch: %+v", e)
	}
	if e := evs[5]; e.Kind != KindAttemptEnd || e.Reason() != htm.AbortMemoryConflict ||
		e.Mode() != cpu.ModeFailedDiscovery || e.PC() != 14 || e.Retries() != 1 ||
		e.NextMode() != clear.RetrySCL {
		t.Fatalf("abort mismatch: %+v", e)
	} else if ok, a := e.Assessed(); !ok || a != clear.RetrySCL {
		t.Fatalf("assessment mismatch: ok=%v a=%v", ok, a)
	}
	if e := evs[6]; e.FootprintLen() != 3 || e.Retries() != 1 || e.Mode() != cpu.ModeSCL {
		t.Fatalf("CL attempt-start mismatch: %+v", e)
	}
	if e := evs[7]; e.Kind != KindCommit || e.Mode() != cpu.ModeSCL ||
		e.StoreLines() != 2 || e.Retries() != 1 {
		t.Fatalf("commit mismatch: %+v", e)
	}
}

// TestReaderRejectsGarbage checks corrupt inputs produce errors, not junk.
func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("want error for bad magic")
	}
	// Valid header followed by a corrupt record.
	m := newTestMachine(t, 1)
	var buf bytes.Buffer
	tr := attachTest(t, m, &buf, Options{})
	tr.OnInvocationStart(0, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-recordSize+8] = 0xee // kind byte -> invalid
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err == nil {
		t.Fatal("want error for corrupt kind")
	}
	// Truncated record.
	rd2, err := NewReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd2.Next(); err == nil || err == io.EOF {
		t.Fatalf("want truncation error, got %v", err)
	}
}

// TestReaderRejectsCoreOverflow decodes a 62-byte file whose header claims
// 2³¹−1 cores, followed by one commit record. Accepting it let BuildProfile
// size a per-core slice from the header and die out of memory.
func TestReaderRejectsCoreOverflow(t *testing.T) {
	raw, err := os.ReadFile("testdata/cores-overflow.trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 62 {
		t.Fatalf("fixture is %d bytes, want 62", len(raw))
	}
	_, err = NewReader(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "2147483647 cores") {
		t.Fatalf("want a core-count error, got %v", err)
	}
	// 255 cores is the largest count records can address.
	binary.LittleEndian.PutUint32(raw[8:], uint32(NoCore))
	if _, err := NewReader(bytes.NewReader(raw)); err != nil {
		t.Fatalf("255 cores rejected: %v", err)
	}
}

// TestSampleIntervalsRejectsFarTick: the 62-byte fixture is
// cores-overflow.trace with one core and its commit at tick 2³⁴. Sampling
// it used to allocate one sample per interval up to that tick (1.7 M at the
// default width) until the process ran out of memory; the sample count now
// follows from the last tick and is capped before anything is allocated.
func TestSampleIntervalsRejectsFarTick(t *testing.T) {
	f, err := os.Open("testdata/far-tick.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Tick != 1<<34 {
		t.Fatalf("fixture holds %+v, want one event at tick 2^34", evs)
	}
	for _, width := range []sim.Tick{1, 10_000, (1 << 34) / maxSamples} {
		s, err := SampleIntervals(rd.Meta(), evs, width)
		if err == nil || !strings.HasPrefix(err.Error(), "trace: ") || s != nil {
			t.Errorf("width %d: got %d samples, err %v; want a trace: error", width, len(s), err)
		}
	}
	// A width that covers the tick in maxSamples samples is accepted.
	s, err := SampleIntervals(rd.Meta(), evs, 1<<20)
	if err != nil || len(s) != 1<<14+1 {
		t.Fatalf("width 2^20: got %d samples, err %v; want 2^14+1", len(s), err)
	}
	// So is a tick near the top of the range, without wrapping.
	far := []Event{{Tick: ^sim.Tick(0), Kind: KindCommit}}
	if s, err := SampleIntervals(rd.Meta(), far, 1<<63); err != nil || len(s) != 2 {
		t.Fatalf("tick 2^64-1 at width 2^63: got %d samples, err %v; want 2", len(s), err)
	}
}

// makeSyntheticStream builds a small two-core stream with a lock wait.
func makeSyntheticStream(t *testing.T) (Meta, []Event) {
	t.Helper()
	m := newTestMachine(t, 2)
	var buf bytes.Buffer
	tr := attachTest(t, m, &buf, Options{ARNames: map[int]string{1: "alpha", 2: "beta"}})
	// Core 0 runs alpha and locks line 5; core 1 waits for it on beta.
	tr.OnInvocationStart(0, 1)
	tr.OnAttemptStart(0, cpu.ModeNSCL, 1, []mem.LineAddr{5})
	tr.OnLock(0, 5, lockOK())
	tr.OnInvocationStart(1, 2)
	tr.OnAttemptStart(1, cpu.ModeNSCL, 1, []mem.LineAddr{5})
	tr.OnLock(1, 5, lockRetry())
	tr.OnLock(1, 5, lockRetry())
	tr.OnCommit(cpu.CommitInfo{Core: 0, ProgID: 1, Attempt: 1, Mode: cpu.ModeNSCL})
	tr.OnUnlock(0, 5)
	tr.OnLock(1, 5, lockOK())
	tr.OnCommit(cpu.CommitInfo{Core: 1, ProgID: 2, Attempt: 1, Mode: cpu.ModeNSCL})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rd.Meta(), evs
}

// TestTimelineLockWaits checks the reconstructor attributes lock waits to
// the holding core.
func TestTimelineLockWaits(t *testing.T) {
	meta, evs := makeSyntheticStream(t)
	tl := BuildTimeline(meta, evs)
	if len(tl.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d: %+v", len(tl.Spans), tl.Spans)
	}
	var beta *Span
	for i := range tl.Spans {
		if tl.Spans[i].ProgID == 2 {
			beta = &tl.Spans[i]
		}
	}
	if beta == nil || beta.Outcome != OutcomeCommit {
		t.Fatalf("beta span missing/uncommitted: %+v", tl.Spans)
	}
	if len(beta.Waits) != 1 {
		t.Fatalf("want 1 wait edge on beta, got %d", len(beta.Waits))
	}
	w := beta.Waits[0]
	if w.Line != 5 || w.Holder != 0 || !w.Acquired {
		t.Fatalf("wait edge mismatch: %+v", w)
	}
	per := BuildProfile(meta, evs).ARs
	if len(per) != 2 || per[0].Name != "alpha" || per[1].Name != "beta" {
		t.Fatalf("per-AR mismatch: %+v", per)
	}
	if per[1].LockWaitTicks == 0 && w.End > w.Start {
		t.Fatalf("lock wait not aggregated: %+v", per[1])
	}
}

// TestFilterEvents checks core/AR/kind/window filters, including per-core
// AR attribution of non-AR events.
func TestFilterEvents(t *testing.T) {
	meta, evs := makeSyntheticStream(t)
	f := NewFilter()
	f.Core = 1
	got := FilterEvents(evs, meta.Cores, f)
	for _, e := range got {
		if e.Core != 1 {
			t.Fatalf("core filter leak: %+v", e)
		}
	}
	// AR filter: the lock events of core 1 belong to beta.
	f = NewFilter()
	f.ProgID = 2
	got = FilterEvents(evs, meta.Cores, f)
	locks := 0
	for _, e := range got {
		if e.Core != 1 {
			t.Fatalf("beta filter returned a core-0 event: %+v", e)
		}
		if e.Kind == KindLock {
			locks++
		}
	}
	if locks != 3 {
		t.Fatalf("beta lock events: want 3, got %d", locks)
	}
	// Kind filter.
	f = NewFilter()
	f.Kinds = map[Kind]bool{KindCommit: true}
	got = FilterEvents(evs, meta.Cores, f)
	if len(got) != 2 {
		t.Fatalf("commit filter: want 2, got %d", len(got))
	}
}

// TestPerfettoSchema checks the exporter's JSON parses and carries the
// required trace-event fields.
func TestPerfettoSchema(t *testing.T) {
	meta, evs := makeSyntheticStream(t)
	tl := BuildTimeline(meta, evs)
	samples, err := SampleIntervals(meta, evs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tl, samples); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	phases := map[string]int{}
	for i, te := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := te[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, te)
			}
		}
		phases[te["ph"].(string)]++
	}
	if phases["M"] < 3 || phases["X"] < 2 || phases["C"] == 0 {
		t.Fatalf("unexpected phase mix: %v", phases)
	}
}

// TestExportCSV checks both CSV exporters emit a header plus one row per
// span/event.
func TestExportCSV(t *testing.T) {
	meta, evs := makeSyntheticStream(t)
	tl := BuildTimeline(meta, evs)
	var buf bytes.Buffer
	if err := WriteSpanCSV(&buf, tl); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+len(tl.Spans) {
		t.Fatalf("span CSV lines: want %d, got %d", 1+len(tl.Spans), lines)
	}
	buf.Reset()
	if err := WriteEventCSV(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+len(evs) {
		t.Fatalf("event CSV lines: want %d, got %d", 1+len(evs), lines)
	}
}

// TestWriteText renders the synthetic stream and spot-checks the classic
// line format.
func TestWriteText(t *testing.T) {
	meta, evs := makeSyntheticStream(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, meta, evs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"core  0", "core  1", "lock L0x5 ok", "lock L0x5 retry",
		"begin ns-cl", "commit ns-cl", "invoke prog=alpha",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestSampleIntervals checks counter aggregation across interval
// boundaries.
func TestSampleIntervals(t *testing.T) {
	meta, evs := makeSyntheticStream(t)
	samples, err := SampleIntervals(meta, evs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var commits, acquires, retries int
	for _, s := range samples {
		commits += s.Commits
		acquires += s.LockAcquires
		retries += s.LockRetries
	}
	if commits != 2 || acquires != 2 || retries != 2 {
		t.Fatalf("sample totals mismatch: commits=%d acquires=%d retries=%d", commits, acquires, retries)
	}
	var buf bytes.Buffer
	if err := WriteIntervalCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+len(samples) {
		t.Fatalf("interval CSV lines: want %d, got %d", 1+len(samples), lines)
	}
}

// TestKindStringRoundTrip checks KindFromString inverts String for every
// kind.
func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(1); k < NumKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("round trip failed for %v", k)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Fatal("bogus kind resolved")
	}
}

// TestTracerEmitAllocs pins the tracer's hot-path allocation contract:
// steady-state emission into the preallocated batch buffer (flushing to a
// non-allocating writer) performs zero heap allocations per event — the
// only allocation cost of tracing is amortised to at most one per flushed
// batch inside the destination writer.
func TestTracerEmitAllocs(t *testing.T) {
	m := newTestMachine(t, 2)
	tr := attachTest(t, m, io.Discard, Options{MemAccesses: true, DirAccesses: true})
	info := cpu.CommitInfo{Core: 0, ProgID: 1, Attempt: 0, Mode: cpu.ModeSpeculative}
	per := testing.AllocsPerRun(5000, func() {
		tr.OnLock(0, 5, lockOK())
		tr.OnUnlock(0, 5)
		tr.OnMemAccess(0, 0x40, 1, true, cpu.ModeSpeculative)
		tr.OnCommit(info)
	})
	if per > 0 {
		t.Fatalf("tracer emit allocates %.2f objects per 4-event group; want 0", per)
	}
}

// BenchmarkTracerEmit measures the per-event cost of the binary encoder
// (the overhead every traced hook site pays).
func BenchmarkTracerEmit(b *testing.B) {
	m := newTestMachine(b, 2)
	tr, err := Attach(m, io.Discard, Options{MemAccesses: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.OnMemAccess(0, mem.Addr(i), uint64(i), i&1 == 0, cpu.ModeSpeculative)
	}
}
