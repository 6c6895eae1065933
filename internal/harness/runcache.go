package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// cacheSalt ties every cache key to the code version of the statistics
// schema: when a simulator change alters the stats a given RunParams
// produces, stats.DigestSchemaVersion must be bumped, which changes the salt
// and orphans all previously cached records (see internal/runstore).
func cacheSalt() string {
	return fmt.Sprintf("stats-digest/v%d", stats.DigestSchemaVersion)
}

// Spec returns the canonical, versioned cache spec of the run: the flat
// runstore mirror of every digest-affecting parameter plus the code-version
// salt. Host-side knobs (trace writers, metrics registries, wall deadlines)
// are deliberately excluded — they never change the simulated outcome.
//
// A reflection test (TestRunParamsSpecCoverage) pins the RunParams field set,
// so adding a field without classifying it here fails loudly.
func (p RunParams) Spec() runstore.RunSpec {
	spec := runstore.RunSpec{
		Benchmark:    p.Benchmark,
		Config:       p.Config.String(),
		Cores:        p.Cores,
		OpsPerThread: p.OpsPerThread,
		RetryLimit:   p.RetryLimit,
		Seed:         p.Seed,
		MaxTicks:     uint64(p.MaxTicks),
		SLE:          p.SLE,
		Oracle:       p.Oracle,
		Mesh:         p.Mesh,

		DisableDiscoveryContinuation: p.DisableDiscoveryContinuation,
		SCLLockAllReads:              p.SCLLockAllReads,

		ERTEntries: p.ERTEntries,
		ALTEntries: p.ALTEntries,
		CRTEntries: p.CRTEntries,
		CRTWays:    p.CRTWays,

		Salt: cacheSalt(),
	}
	if p.FaultPlan != nil {
		spec.FaultPlan = fmt.Sprintf("%+v", *p.FaultPlan)
	}
	if !p.Policy.IsDefault() {
		// The default policy is elided (empty string): it reproduces the
		// pre-policy simulator bit-identically, so pre-existing cache keys
		// must keep resolving.
		spec.Policy = p.Policy.Canonical()
	}
	return spec
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
// as Params, so aggregation code is oblivious to where the result came from.
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
	return &RunResult{
		Params: p,
		Stats:  rec.Stats,
		Dir:    rec.Dir,
		Energy: rec.Energy,
		Faults: rec.Faults,
		Oracle: rec.Oracle,
	}, true
}

// EncodeCacheRecord renders the persisted JSON form of a successful run
// result — the exact bytes StoreCached writes and the farm server returns to
// remote clients, so both sides of the wire decode one schema.
func EncodeCacheRecord(res *RunResult) ([]byte, error) {
	payload, err := json.Marshal(CacheRecord{
		Spec:   res.Params.Spec().Canonical(),
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
