package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// specVersion identifies the canonical encoding of RunSpec and the layout of
// the cached payloads. Bump it whenever either changes — for example when a
// digest-affecting field is added to RunParams — so every previously cached
// record is orphaned (its key can no longer be derived) instead of silently
// replayed with stale semantics.
const specVersion = 1

// RunSpec is the canonical, versioned text of one run's digest-affecting
// parameters: the exact bytes hashed into its run-store key, and the text a
// cache record embeds for human auditing.
type RunSpec string

// Key returns the content address of the spec: the lowercase hex SHA-256 of
// its text.
func (s RunSpec) Key() string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Spec renders the run's canonical cache spec: a versioned header, a salt
// naming the statistics digest schema, then one key=value line per
// digest-affecting parameter in a fixed order. Host-side knobs (trace
// writers, metrics registries, wall deadlines) are deliberately excluded —
// they never change the simulated outcome. The format is append-only within
// a spec version: any reordering, rename, or addition requires bumping
// specVersion. TestSpecCanonicalGolden pins the bytes.
//
// The salt ties every key to stats.DigestSchemaVersion: a simulator change
// that alters the statistics a given RunParams produces must bump that
// version, which changes every key and orphans all previously cached
// records. A reflection test (TestRunParamsSpecCoverage) pins the RunParams
// field set, so adding a field without classifying it here fails loudly.
func (p RunParams) Spec() RunSpec {
	var b strings.Builder
	fmt.Fprintf(&b, "runspec/v%d\n", specVersion)
	fmt.Fprintf(&b, "salt=stats-digest/v%d\n", stats.DigestSchemaVersion)
	fmt.Fprintf(&b, "benchmark=%s\n", p.Benchmark)
	fmt.Fprintf(&b, "config=%s\n", p.Config.String())
	fmt.Fprintf(&b, "cores=%d\n", p.Cores)
	fmt.Fprintf(&b, "ops_per_thread=%d\n", p.OpsPerThread)
	fmt.Fprintf(&b, "retry_limit=%d\n", p.RetryLimit)
	fmt.Fprintf(&b, "seed=%d\n", p.Seed)
	fmt.Fprintf(&b, "max_ticks=%d\n", uint64(p.MaxTicks))
	fmt.Fprintf(&b, "sle=%t\n", p.SLE)
	fmt.Fprintf(&b, "oracle=%t\n", p.Oracle)
	fmt.Fprintf(&b, "mesh=%t\n", p.Mesh)
	fmt.Fprintf(&b, "disable_discovery_continuation=%t\n", p.DisableDiscoveryContinuation)
	fmt.Fprintf(&b, "scl_lock_all_reads=%t\n", p.SCLLockAllReads)
	fmt.Fprintf(&b, "ert_entries=%d\n", p.ERTEntries)
	fmt.Fprintf(&b, "alt_entries=%d\n", p.ALTEntries)
	fmt.Fprintf(&b, "crt_entries=%d\n", p.CRTEntries)
	fmt.Fprintf(&b, "crt_ways=%d\n", p.CRTWays)
	// The retired forward-progress watchdog keyed runs here; the line stays,
	// always empty, so every key derived without a watchdog still resolves.
	b.WriteString("watchdog=\n")
	b.WriteString("fault_plan=")
	if p.FaultPlan != nil {
		// Fault injection perturbs the simulation, so two runs under
		// different plans are different cache entries.
		fmt.Fprintf(&b, "%+v", *p.FaultPlan)
	}
	b.WriteString("\n")
	if !p.Policy.IsDefault() {
		// Default-elision: the policy line appears only for non-default
		// policies. The default policy is bit-identical to the pre-policy
		// simulator, so eliding it preserves every previously derived key —
		// the one sanctioned exception to "append-only within a version".
		fmt.Fprintf(&b, "policy=%s\n", p.Policy.Canonical())
	}
	return RunSpec(b.String())
}

// Cacheable reports whether the run's outcome is fully captured by a cached
// record. Runs that stream a binary event trace execute for the stream's
// side effect, so replaying them from the cache would silently produce an
// empty trace — they always simulate.
func (p RunParams) Cacheable() bool {
	return p.TraceWriter == nil
}

// CacheRecord is the persisted summary of one successful run: everything a
// RunResult carries except the (non-serializable, caller-owned) RunParams.
// Only integers and shortest-round-trip float64s are stored, so a JSON
// round trip is exact and a resumed sweep is byte-identical to an
// uninterrupted one. Failures are never cached: a resumed sweep recomputes
// missing *and* failed cells. Exported so offline tools (cleartrace diff)
// can read runstore payloads without re-deriving the schema.
type CacheRecord struct {
	// Spec is the canonical encoding the key was derived from, kept for
	// human auditing of the cache directory (it is not re-verified on read;
	// the content address already guarantees the match).
	Spec   string          `json:"spec"`
	Stats  *stats.Run      `json:"stats"`
	Dir    coherence.Stats `json:"dir"`
	Energy float64         `json:"energy"`
	Faults *fault.Stats    `json:"faults,omitempty"`
	Oracle *check.Report   `json:"oracle,omitempty"`
}

// DecodeCacheRecord parses a runstore payload. A payload without stats is
// rejected: it is either corrupt or from a foreign schema.
func DecodeCacheRecord(payload []byte) (*CacheRecord, error) {
	var rec CacheRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("harness: decode cache record: %w", err)
	}
	if rec.Stats == nil {
		return nil, fmt.Errorf("harness: cache record has no stats (corrupt or foreign)")
	}
	return &rec, nil
}

// LookupCached returns the cached result of p from st, if one exists. A nil
// store, an uncacheable run, or an undecodable record all report a miss; the
// caller falls back to simulating. The restored RunResult carries p itself
// as Params.
func LookupCached(st runstore.Backend, p RunParams) (*RunResult, bool) {
	if st == nil || !p.Cacheable() {
		return nil, false
	}
	payload, ok, err := st.Get(p.Spec().Key())
	if err != nil || !ok {
		return nil, false
	}
	rec, err := DecodeCacheRecord(payload)
	if err != nil {
		// Corrupt or foreign record: treat as a miss and let the rerun's
		// Put overwrite it.
		return nil, false
	}
	if p.Oracle && rec.Oracle == nil {
		// An oracle run cached before the oracle kept a report: rerun it
		// rather than replay a result that lacks one.
		return nil, false
	}
	return rec.Result(p), true
}

// Result restores the RunResult of p from its record, so aggregation code
// is oblivious to where the result came from.
func (rec *CacheRecord) Result(p RunParams) *RunResult {
	return &RunResult{
		Params: p,
		Stats:  rec.Stats,
		Dir:    rec.Dir,
		Energy: rec.Energy,
		Faults: rec.Faults,
		Oracle: rec.Oracle,
	}
}

// EncodeCacheRecord renders the persisted JSON form of a successful run
// result — the exact bytes StoreCached writes and the farm server returns to
// remote clients, so both sides of the wire decode one schema.
func EncodeCacheRecord(res *RunResult) ([]byte, error) {
	payload, err := json.Marshal(CacheRecord{
		Spec:   string(res.Params.Spec()),
		Stats:  res.Stats,
		Dir:    res.Dir,
		Energy: res.Energy,
		Faults: res.Faults,
		Oracle: res.Oracle,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: encode cache record: %w", err)
	}
	return payload, nil
}

// StoreCached persists a successful run result under its spec key.
func StoreCached(st runstore.Backend, res *RunResult) error {
	if st == nil || res == nil || !res.Params.Cacheable() {
		return nil
	}
	payload, err := EncodeCacheRecord(res)
	if err != nil {
		return err
	}
	return st.Put(res.Params.Spec().Key(), payload)
}

// RunCheckedCached is RunChecked behind the run cache: it consults st before
// simulating and persists the summary of a successful simulation afterwards.
// hit reports whether the result was served from the cache. A store write
// failure is deliberately non-fatal (the result is still correct, only
// un-memoized); the error is folded into nothing because every consumer
// would ignore it — a persistently unwritable store surfaces through the
// sweep's 0% hit rate instead.
func RunCheckedCached(st runstore.Backend, p RunParams) (res *RunResult, fail *RunFailure, hit bool) {
	if r, ok := LookupCached(st, p); ok {
		return r, nil, true
	}
	res, fail = RunChecked(p)
	if fail == nil {
		_ = StoreCached(st, res)
	}
	return res, fail, false
}
