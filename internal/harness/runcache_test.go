package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/runstore"
)

// mustPolicy parses a policy spec or fails the test.
func mustPolicy(t *testing.T, s string) policy.Spec {
	t.Helper()
	spec, err := policy.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// specKeyed lists the RunParams fields that participate in the cache key
// (RunParams.Spec). specHostSide lists the fields that are deliberately
// excluded because they never change the simulated outcome. Every RunParams
// field must appear in exactly one of the two lists.
var (
	specKeyed = []string{
		"Benchmark", "Config", "Cores", "OpsPerThread", "RetryLimit", "Seed",
		"MaxTicks", "SLE", "Oracle", "Mesh",
		"DisableDiscoveryContinuation", "SCLLockAllReads",
		"ERTEntries", "ALTEntries", "CRTEntries", "CRTWays",
		"FaultPlan", "Policy",
	}
	specHostSide = []string{
		"TraceWriter", "TraceMem", "TraceDir", "Metrics", "Deadline",
	}
)

// TestRunParamsSpecCoverage pins the RunParams field set so a new field
// cannot silently escape the cache key: adding one fails this test until it
// is classified as keyed (update RunParams.Spec and bump specVersion)
// or host-side (add it to specHostSide with a justification).
func TestRunParamsSpecCoverage(t *testing.T) {
	known := make(map[string]bool)
	for _, n := range specKeyed {
		known[n] = true
	}
	for _, n := range specHostSide {
		if known[n] {
			t.Fatalf("field %q listed as both keyed and host-side", n)
		}
		known[n] = true
	}
	typ := reflect.TypeOf(RunParams{})
	seen := make(map[string]bool)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if !known[name] {
			t.Errorf("new RunParams field %q: teach RunParams.Spec about it (and bump specVersion) or list it in specHostSide", name)
		}
	}
	for name := range known {
		if !seen[name] {
			t.Errorf("RunParams field %q no longer exists: update the spec coverage lists (and bump specVersion if it was keyed)", name)
		}
	}

	// RunParams is also the farm's wire form: every keyed field travels
	// under a JSON name, and no host-side field does.
	for _, n := range specKeyed {
		f, _ := typ.FieldByName(n)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" || name == "-" {
			t.Errorf("keyed RunParams field %q has no JSON name: the farm wire would drop it", n)
		}
	}
	for _, n := range specHostSide {
		if f, _ := typ.FieldByName(n); f.Tag.Get("json") != "-" {
			t.Errorf("host-side RunParams field %q is not json:\"-\"", n)
		}
	}

	// A run with every keyed field set keeps its key across the wire.
	plan, err := fault.PresetPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	p := RunParams{
		Benchmark: "hashmap", Config: ConfigW, Cores: 4, OpsPerThread: 8,
		RetryLimit: 3, Seed: 7, MaxTicks: 123_456,
		SLE: true, Oracle: true, Mesh: true,
		DisableDiscoveryContinuation: true, SCLLockAllReads: true,
		ERTEntries: 8, ALTEntries: 16, CRTEntries: 32, CRTWays: 4,
		FaultPlan: plan, Policy: mustPolicy(t, "retry:n=2"),
	}
	for _, n := range specKeyed {
		if reflect.ValueOf(p).FieldByName(n).IsZero() {
			t.Fatalf("round-trip fixture leaves keyed field %q zero", n)
		}
	}
	wire, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back RunParams
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Spec().Key(), p.Spec().Key(); got != want {
		t.Fatalf("JSON round trip changed the key %s -> %s:\n%s", want, got, wire)
	}
}

// TestSpecCanonicalGolden pins the canonical encoding byte for byte: it is
// the hashed content, so any drift (reordering, renaming, formatting)
// silently orphans every cached record. If this test fails you changed the
// encoding — bump specVersion and update the golden strings.
func TestSpecCanonicalGolden(t *testing.T) {
	p := RunParams{
		Benchmark:    "hashmap",
		Config:       ConfigC,
		Cores:        32,
		OpsPerThread: 120,
		RetryLimit:   4,
		Seed:         1,
		MaxTicks:     400_000_000,
	}
	want := `runspec/v1
salt=stats-digest/v1
benchmark=hashmap
config=C
cores=32
ops_per_thread=120
retry_limit=4
seed=1
max_ticks=400000000
sle=false
oracle=false
mesh=false
disable_discovery_continuation=false
scl_lock_all_reads=false
ert_entries=0
alt_entries=0
crt_entries=0
crt_ways=0
watchdog=
fault_plan=
`
	spec := p.Spec()
	if got := string(spec); got != want {
		t.Fatalf("canonical encoding drifted (bump specVersion!):\ngot:\n%s\nwant:\n%s", got, want)
	}
	const wantKey = "97052b078269df342b86310f7a3c4d30450c962f91b9e7b4f35e01d51dc8ba07"
	if got := spec.Key(); got != wantKey {
		t.Fatalf("cache key drifted (bump specVersion!):\ngot  %s\nwant %s", got, wantKey)
	}
}

// TestSpecKeySensitivity checks that each keyed parameter it varies yields
// a key of its own.
func TestSpecKeySensitivity(t *testing.T) {
	base := RunParams{Benchmark: "hashmap", Config: ConfigC, Cores: 8, Seed: 1}
	variants := map[string]RunParams{}
	v := base
	v.Benchmark = "bst"
	variants["benchmark"] = v
	v = base
	v.Config = ConfigW
	variants["config"] = v
	v = base
	v.Seed = 2
	variants["seed"] = v
	v = base
	v.FaultPlan = &fault.Plan{NackRate: 0.1}
	variants["fault_plan"] = v
	v = base
	v.Oracle = true
	variants["oracle"] = v

	seen := map[string]string{base.Spec().Key(): "base"}
	for name, p := range variants {
		k := p.Spec().Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestRunSpecGolden pins the cache key of the default hashmap/C run, its
// salt line and the default-elision of the policy line. If the key changes,
// specVersion (or the salt schema version) must be bumped.
func TestRunSpecGolden(t *testing.T) {
	p := DefaultRunParams("hashmap", ConfigC)
	spec := p.Spec()
	if !strings.Contains(string(spec), "\nsalt=stats-digest/v1\n") {
		t.Fatalf("spec lacks salt=stats-digest/v1: stats.DigestSchemaVersion changed — verify old cache entries are orphaned and update this golden:\n%s", spec)
	}
	const wantKey = "97052b078269df342b86310f7a3c4d30450c962f91b9e7b4f35e01d51dc8ba07"
	if got := spec.Key(); got != wantKey {
		t.Fatalf("cache key of DefaultRunParams(hashmap, C) changed:\n got %s\nwant %s\ncanonical:\n%s\nIf the change is intentional, bump specVersion and refresh the goldens.",
			got, wantKey, spec)
	}

	// Attaching the oracle must change the key: it decides whether a run
	// errors, and its report is part of the cached record.
	po := p
	po.Oracle = true
	if po.Spec().Key() == wantKey {
		t.Fatal("attaching the oracle did not change the cache key")
	}

	// Policy default-elision: the default policy must not touch the key —
	// every record cached before policies existed keeps resolving — while a
	// non-default policy must produce a distinct one, named on the last line
	// in its canonical form.
	pp := p
	pp.Policy = mustPolicy(t, "clear")
	if got := pp.Spec().Key(); got != wantKey {
		t.Fatalf("explicit default policy changed the cache key: %s", got)
	}
	pp.Policy = mustPolicy(t, "retry:n=2")
	if pp.Spec().Key() == wantKey {
		t.Fatal("non-default policy did not change the cache key")
	}
	lines := strings.Split(strings.TrimSuffix(string(pp.Spec()), "\n"), "\n")
	if got := lines[len(lines)-1]; got != "policy=retry:backoff=exp,n=2" {
		t.Fatalf("last spec line %q, want policy=retry:backoff=exp,n=2", got)
	}
}

func TestRunCachedRoundTrip(t *testing.T) {
	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultRunParams("hashmap", ConfigC)
	p.Cores = 4
	p.OpsPerThread = 10

	cold, fail, hit := RunCheckedCached(st, p)
	if fail != nil {
		t.Fatalf("cold run failed: %v", fail)
	}
	if hit {
		t.Fatal("cold run reported a cache hit")
	}
	warm, fail, hit := RunCheckedCached(st, p)
	if fail != nil {
		t.Fatalf("warm run failed: %v", fail)
	}
	if !hit {
		t.Fatal("second identical run was not served from the cache")
	}
	if cold.Stats.Digest() != warm.Stats.Digest() {
		t.Fatalf("cached stats digest %s != simulated %s", warm.Stats.Digest(), cold.Stats.Digest())
	}
	if cold.Dir != warm.Dir {
		t.Fatalf("cached directory stats diverged:\n got %+v\nwant %+v", warm.Dir, cold.Dir)
	}
	if cold.Energy != warm.Energy {
		t.Fatalf("cached energy %v != simulated %v", warm.Energy, cold.Energy)
	}

	// An oracle run caches its report: the warm report equals the cold one.
	po := p
	po.Oracle = true
	cold, fail, hit = RunCheckedCached(st, po)
	if fail != nil || hit {
		t.Fatalf("cold oracle run: fail=%v hit=%v", fail, hit)
	}
	warm, fail, hit = RunCheckedCached(st, po)
	if fail != nil || !hit {
		t.Fatalf("warm oracle run: fail=%v hit=%v", fail, hit)
	}
	if cold.Oracle == nil || warm.Oracle == nil || *cold.Oracle != *warm.Oracle {
		t.Fatalf("cached oracle report %+v != simulated %+v", warm.Oracle, cold.Oracle)
	}
	// A record under an oracle key that carries no report (written before
	// the oracle kept one) is a miss, never a replay without the report.
	stale := *cold
	stale.Oracle = nil
	payload, err := EncodeCacheRecord(&stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(po.Spec().Key(), payload); err != nil {
		t.Fatal(err)
	}
	if _, hit := LookupCached(st, po); hit {
		t.Fatal("an oracle run was served a cached record without an oracle report")
	}

	// A traced run is not cacheable: it must simulate even with a warm store.
	pt := p
	pt.TraceWriter = &bytes.Buffer{}
	if pt.Cacheable() {
		t.Fatal("traced run reported cacheable")
	}
	if _, _, hit := RunCheckedCached(st, pt); hit {
		t.Fatal("traced run was served from the cache")
	}
}

// TestLookupCachedQuarantines holds the quarantine contract where it lives
// now that the store returns payloads unjudged. A truncated record, a
// non-JSON record, a JSON record with no stats and one with an unknown
// member are each a LookupCached miss and are each moved to <key>.corrupt
// byte for byte, after which RunCheckedCached simulates again and repairs
// the slot while the corpse stays. A valid record that only lacks the
// oracle report an oracle key needs is a miss left in place.
func TestLookupCachedQuarantines(t *testing.T) {
	p := DefaultRunParams("hashmap", ConfigC)
	p.Cores = 4
	p.OpsPerThread = 10
	res, fail := RunChecked(p)
	if fail != nil {
		t.Fatalf("run failed: %v", fail)
	}
	good, err := EncodeCacheRecord(res)
	if err != nil {
		t.Fatal(err)
	}
	// open returns a fresh store holding payload under key, and the paths
	// of its record and of the record's quarantine.
	open := func(t *testing.T, key string, payload []byte) (st *runstore.Store, rec, corpse string) {
		t.Helper()
		st, err := runstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(st.Dir(), key[:2])
		return st, filepath.Join(shard, key+".json"), filepath.Join(shard, key+".corrupt")
	}

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"not JSON", []byte("not json at all")},
		{"no stats", []byte(`{"spec":"runspec/v1","energy":1}`)},
		{"unknown member", []byte(`{"ok":true}`)},
		{"empty", []byte{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := p.Spec().Key()
			st, rec, corpse := open(t, key, tc.payload)
			if _, hit := LookupCached(st, p); hit {
				t.Fatal("a corrupt record was served as a hit")
			}
			if _, err := os.Stat(rec); !os.IsNotExist(err) {
				t.Fatalf("corrupt record still at its path: %v", err)
			}
			if moved, err := os.ReadFile(corpse); err != nil || !bytes.Equal(moved, tc.payload) {
				t.Fatalf("quarantined bytes = %q, %v; want %q", moved, err, tc.payload)
			}
			if _, fail, hit := RunCheckedCached(st, p); fail != nil || hit {
				t.Fatalf("rerun after quarantine: fail=%v hit=%v", fail, hit)
			}
			if got, err := os.ReadFile(rec); err != nil || !bytes.Equal(got, good) {
				t.Fatalf("repaired record = %q, %v; want the simulated run's record", got, err)
			}
			if _, hit := LookupCached(st, p); !hit {
				t.Fatal("the repaired record is not a hit")
			}
			if _, err := os.Stat(corpse); err != nil {
				t.Fatalf("corpse removed by the repair: %v", err)
			}
		})
	}

	t.Run("stale oracle record", func(t *testing.T) {
		po := p
		po.Oracle = true
		key := po.Spec().Key()
		st, rec, corpse := open(t, key, good)
		if _, hit := LookupCached(st, po); hit {
			t.Fatal("an oracle run was served a cached record without an oracle report")
		}
		if got, err := os.ReadFile(rec); err != nil || !bytes.Equal(got, good) {
			t.Fatalf("stale record = %q, %v; want it left in place", got, err)
		}
		if _, err := os.Stat(corpse); !os.IsNotExist(err) {
			t.Fatalf("a decodable stale record was quarantined: %v", err)
		}
	})
}

// matrixCSV runs the sweep and renders its cell CSV.
func matrixCSV(t *testing.T, opts MatrixOptions) (*Matrix, []byte) {
	t.Helper()
	m, err := RunMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Failures) > 0 {
		t.Fatalf("sweep had %d failures: %v", len(m.Failures), m.Failures[0])
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

func smallMatrixOptions() MatrixOptions {
	opts := QuickMatrixOptions()
	opts.Benchmarks = []string{"mwobject", "bitcoin"}
	opts.Cores = 4
	opts.OpsPerThread = 20
	return opts
}

// TestMatrixWarmCacheByteIdentical is the memoization contract: a second
// sweep over a warm store is served entirely from the cache and produces the
// byte-identical cell CSV — the property the CI round-trip job asserts on the
// full quick matrix.
func TestMatrixWarmCacheByteIdentical(t *testing.T) {
	opts := smallMatrixOptions()
	_, refCSV := matrixCSV(t, opts) // no store: the uncached reference

	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	total := len(opts.Benchmarks) * len(opts.Configs) * len(opts.RetryLimits) * len(opts.Seeds)

	coldM, coldCSV := matrixCSV(t, opts)
	if coldM.CacheHits != 0 || coldM.CacheMisses != total {
		t.Fatalf("cold sweep: hits=%d misses=%d, want 0/%d", coldM.CacheHits, coldM.CacheMisses, total)
	}
	warmM, warmCSV := matrixCSV(t, opts)
	if warmM.CacheMisses != 0 || warmM.CacheHits != total {
		t.Fatalf("warm sweep: hits=%d misses=%d, want %d/0", warmM.CacheHits, warmM.CacheMisses, total)
	}
	if !bytes.Equal(refCSV, coldCSV) {
		t.Fatal("cold cached sweep CSV differs from the uncached reference")
	}
	if !bytes.Equal(refCSV, warmCSV) {
		t.Fatal("warm cached sweep CSV differs from the uncached reference")
	}
}

// TestMatrixResumeByteIdentical is the resume contract: a sweep cancelled
// mid-flight and restarted with the same store recomputes only what is
// missing and still produces the byte-identical matrix.
func TestMatrixResumeByteIdentical(t *testing.T) {
	opts := smallMatrixOptions()
	_, refCSV := matrixCSV(t, opts) // uncached reference

	st, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// First pass: the runner closes Cancel after its first n runs. Each of
	// the two workers finishes the cell it holds and claims no other, so
	// at least n and at most n+1 of the runs land in the store.
	const n = 3
	cancel := make(chan struct{})
	var runs atomic.Int32
	cancelled := opts
	cancelled.Parallelism = 2
	cancelled.Cancel = cancel
	cancelled.Runner = func(p RunParams) (*RunResult, *RunFailure, bool) {
		res, fail, hit := RunCheckedCached(st, p)
		if runs.Add(1) == n {
			close(cancel)
		}
		return res, fail, hit
	}
	if _, err := RunMatrix(cancelled); err != nil {
		t.Fatal(err)
	}

	// Resume: same store, no cancellation. Only the cells the first pass
	// missed simulate; the result must be byte-identical to the reference.
	resumed := opts
	resumed.Store = st
	m, resumedCSV := matrixCSV(t, resumed)
	total := len(opts.Benchmarks) * len(opts.Configs) * len(opts.RetryLimits) * len(opts.Seeds)
	if m.CacheHits+m.CacheMisses != total {
		t.Fatalf("resumed sweep consulted the cache %d times, want %d", m.CacheHits+m.CacheMisses, total)
	}
	if m.CacheHits < n || m.CacheMisses == 0 {
		t.Fatalf("resumed sweep: %d hits, %d misses; want at least %d hits and a miss", m.CacheHits, m.CacheMisses, n)
	}
	if !bytes.Equal(refCSV, resumedCSV) {
		t.Fatal("resumed sweep CSV differs from the uninterrupted reference")
	}
}

// TestBetterAggregateTieBreak pins the deterministic retry-limit selection:
// fewer cycles wins, and equal cycles resolve to the lowest retry limit
// regardless of the (scheduling-dependent) arrival order.
func TestBetterAggregateTieBreak(t *testing.T) {
	agg := func(cycles float64, retry int) *Aggregate {
		return &Aggregate{Cycles: cycles, BestRetryLimit: retry}
	}
	cases := []struct {
		name      string
		cur, cand *Aggregate
		want      bool
	}{
		{"first result always wins", nil, agg(100, 8), true},
		{"fewer cycles wins", agg(100, 1), agg(90, 8), true},
		{"more cycles loses", agg(100, 8), agg(110, 1), false},
		{"tie: lower retry wins", agg(100, 8), agg(100, 2), true},
		{"tie: higher retry loses", agg(100, 2), agg(100, 8), false},
		{"tie: equal retry is stable", agg(100, 4), agg(100, 4), false},
	}
	for _, c := range cases {
		if got := betterAggregate(c.cur, c.cand); got != c.want {
			t.Errorf("%s: betterAggregate=%v, want %v", c.name, got, c.want)
		}
	}
}
