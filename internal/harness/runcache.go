package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

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
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
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
	// The stack buffer holds a spec without a fault plan (about 430
	// bytes), so the returned text is the only allocation.
	var buf [640]byte
	b := append(buf[:0], "runspec/v"...)
	b = strconv.AppendInt(b, specVersion, 10)
	b = append(b, "\nsalt=stats-digest/v"...)
	b = strconv.AppendInt(b, stats.DigestSchemaVersion, 10)
	b = append(b, "\nbenchmark="...)
	b = append(b, p.Benchmark...)
	b = append(b, "\nconfig="...)
	b = append(b, p.Config.String()...)
	b = append(b, "\ncores="...)
	b = strconv.AppendInt(b, int64(p.Cores), 10)
	b = append(b, "\nops_per_thread="...)
	b = strconv.AppendInt(b, int64(p.OpsPerThread), 10)
	b = append(b, "\nretry_limit="...)
	b = strconv.AppendInt(b, int64(p.RetryLimit), 10)
	b = append(b, "\nseed="...)
	b = strconv.AppendUint(b, p.Seed, 10)
	b = append(b, "\nmax_ticks="...)
	b = strconv.AppendUint(b, uint64(p.MaxTicks), 10)
	b = append(b, "\nsle="...)
	b = strconv.AppendBool(b, p.SLE)
	b = append(b, "\noracle="...)
	b = strconv.AppendBool(b, p.Oracle)
	b = append(b, "\nmesh="...)
	b = strconv.AppendBool(b, p.Mesh)
	b = append(b, "\ndisable_discovery_continuation="...)
	b = strconv.AppendBool(b, p.DisableDiscoveryContinuation)
	b = append(b, "\nscl_lock_all_reads="...)
	b = strconv.AppendBool(b, p.SCLLockAllReads)
	b = append(b, "\nert_entries="...)
	b = strconv.AppendInt(b, int64(p.ERTEntries), 10)
	b = append(b, "\nalt_entries="...)
	b = strconv.AppendInt(b, int64(p.ALTEntries), 10)
	b = append(b, "\ncrt_entries="...)
	b = strconv.AppendInt(b, int64(p.CRTEntries), 10)
	b = append(b, "\ncrt_ways="...)
	b = strconv.AppendInt(b, int64(p.CRTWays), 10)
	// The retired forward-progress watchdog keyed runs here; the line stays,
	// always empty, so every key derived without a watchdog still resolves.
	b = append(b, "\nwatchdog=\nfault_plan="...)
	if p.FaultPlan != nil {
		// Fault injection perturbs the simulation, so two runs under
		// different plans are different cache entries.
		b = fmt.Appendf(b, "%+v", *p.FaultPlan)
	}
	b = append(b, '\n')
	if !p.Policy.IsDefault() {
		// Default-elision: the policy line appears only for non-default
		// policies. The default policy is bit-identical to the pre-policy
		// simulator, so eliding it preserves every previously derived key —
		// the one sanctioned exception to "append-only within a version".
		b = append(b, "policy="...)
		b = append(b, p.Policy.Canonical()...)
		b = append(b, '\n')
	}
	return RunSpec(b)
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
	Stats  *stats.Run      `json:"stats"`
	Dir    coherence.Stats `json:"dir"`
	Energy float64         `json:"energy"`
	Faults *fault.Stats    `json:"faults,omitempty"`
	Oracle *check.Report   `json:"oracle,omitempty"`
}

// DecodeCacheRecord parses a runstore payload with decodeRecord, the
// single-pass decoder of exactly the JSON EncodeCacheRecord writes. A
// payload it does not recognise, or one without stats, is rejected: it is
// either corrupt or from a foreign schema.
func DecodeCacheRecord(payload []byte) (*CacheRecord, error) {
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("harness: decode cache record: %w", err)
	}
	if rec.Stats == nil {
		return nil, fmt.Errorf("harness: cache record has no stats (corrupt or foreign)")
	}
	return rec, nil
}

// LookupCached returns the cached result of p from st, if one exists. A nil
// store, an uncacheable run, or an undecodable record all report a miss; the
// caller falls back to simulating. The restored RunResult carries p itself
// as Params.
//
// The store does not judge payloads, so this is where a corrupt record is
// caught: a payload DecodeCacheRecord rejects — torn, not JSON, without
// stats, or with an unknown member — is quarantined before the miss is
// reported, and the rerun's Put repairs the slot.
func LookupCached(st runstore.Backend, p RunParams) (*RunResult, bool) {
	if st == nil || !p.Cacheable() {
		return nil, false
	}
	key := p.Spec().Key()
	payload, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	rec, err := DecodeCacheRecord(payload)
	if err != nil {
		st.Quarantine(key)
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
// remote clients, so both sides of the wire decode one schema. The record
// opens with a "spec" member, the canonical text the key was derived from,
// for a reader auditing the store; decoders check it and drop it, since the
// content address already guarantees the match.
func EncodeCacheRecord(res *RunResult) ([]byte, error) {
	payload, err := json.Marshal(struct {
		Spec RunSpec `json:"spec"`
		CacheRecord
	}{res.Params.Spec(), CacheRecord{
		Stats:  res.Stats,
		Dir:    res.Dir,
		Energy: res.Energy,
		Faults: res.Faults,
		Oracle: res.Oracle,
	}})
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
