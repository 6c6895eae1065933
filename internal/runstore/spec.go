// Package runstore is the content-addressed, on-disk run cache behind
// resumable sweeps: PR 1's determinism guarantee makes every simulation run a
// pure function of its parameters (bit-identical statistics for identical
// RunParams), so a run's summary can be memoized under a hash of a canonical,
// versioned serialization of those parameters.
//
// The package is deliberately harness-agnostic: it stores opaque JSON
// payloads keyed by RunSpec, a flat mirror of the digest-affecting run
// parameters. The harness converts RunParams to a RunSpec (and back from the
// cached payload); nothing here imports the simulator, so the store can also
// memoize future workloads (fuzz corpora, chaos campaigns) without import
// cycles.
//
// Key derivation: Key = SHA-256(Canonical()), where Canonical() is a fixed,
// line-oriented key=value rendering that starts with the spec version and a
// caller-supplied code-version salt. Any change to the encoding, the salt, or
// a field value produces a different key — invalidation is by construction,
// never by mutation. A golden test in internal/harness pins the exact
// encoding so accidental drift fails loudly.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// SpecVersion identifies the canonical encoding of RunSpec and the layout of
// the cached payloads. Bump it whenever either changes — for example when a
// digest-affecting field is added to harness.RunParams — so every previously
// cached record is invalidated (its key can no longer be derived) instead of
// silently replayed with stale semantics.
const SpecVersion = 1

// RunSpec is the canonical, versioned serialization of one simulation run's
// digest-affecting parameters. It intentionally mirrors harness.RunParams
// field-for-field for everything that changes simulated behaviour, and
// excludes everything that is host-side or digest-transparent-by-contract
// (trace writers, metrics registries, wall-clock deadlines).
type RunSpec struct {
	Benchmark    string
	Config       string
	Cores        int
	OpsPerThread int
	RetryLimit   int
	Seed         uint64
	MaxTicks     uint64
	SLE          bool
	Oracle       bool
	Mesh         bool

	DisableDiscoveryContinuation bool
	SCLLockAllReads              bool

	ERTEntries int
	ALTEntries int
	CRTEntries int
	CRTWays    int

	// FaultPlan is the canonical rendering of the attached fault plan
	// ("" = none). Fault injection perturbs the simulation, so two runs
	// under different plans are different cache entries.
	FaultPlan string

	// Policy is the canonical rendering of a non-default retry policy
	// ("" = the paper-exact default). The default is elided from the
	// canonical encoding entirely — see Canonical — so every record cached
	// before policies existed keeps its key.
	Policy string

	// Salt is the code-version salt: the harness derives it from the
	// statistics digest schema version, so bumping that schema (any
	// digest-affecting simulator change) orphans every cached record.
	Salt string
}

// Canonical renders the spec as the exact byte sequence that is hashed into
// the cache key: a versioned header followed by one key=value line per field
// in declaration order. The format is append-only within a spec version —
// any reordering, rename, or addition requires bumping SpecVersion.
func (s RunSpec) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runspec/v%d\n", SpecVersion)
	fmt.Fprintf(&b, "salt=%s\n", s.Salt)
	fmt.Fprintf(&b, "benchmark=%s\n", s.Benchmark)
	fmt.Fprintf(&b, "config=%s\n", s.Config)
	fmt.Fprintf(&b, "cores=%d\n", s.Cores)
	fmt.Fprintf(&b, "ops_per_thread=%d\n", s.OpsPerThread)
	fmt.Fprintf(&b, "retry_limit=%d\n", s.RetryLimit)
	fmt.Fprintf(&b, "seed=%d\n", s.Seed)
	fmt.Fprintf(&b, "max_ticks=%d\n", s.MaxTicks)
	fmt.Fprintf(&b, "sle=%t\n", s.SLE)
	fmt.Fprintf(&b, "oracle=%t\n", s.Oracle)
	fmt.Fprintf(&b, "mesh=%t\n", s.Mesh)
	fmt.Fprintf(&b, "disable_discovery_continuation=%t\n", s.DisableDiscoveryContinuation)
	fmt.Fprintf(&b, "scl_lock_all_reads=%t\n", s.SCLLockAllReads)
	fmt.Fprintf(&b, "ert_entries=%d\n", s.ERTEntries)
	fmt.Fprintf(&b, "alt_entries=%d\n", s.ALTEntries)
	fmt.Fprintf(&b, "crt_entries=%d\n", s.CRTEntries)
	fmt.Fprintf(&b, "crt_ways=%d\n", s.CRTWays)
	// The retired forward-progress watchdog keyed runs here; the line stays,
	// always empty, so every key derived without a watchdog still resolves.
	b.WriteString("watchdog=\n")
	fmt.Fprintf(&b, "fault_plan=%s\n", s.FaultPlan)
	if s.Policy != "" {
		// Default-elision: the policy line appears only for non-default
		// policies. The default policy is bit-identical to the pre-policy
		// simulator, so eliding it preserves every previously derived key —
		// the one sanctioned exception to "append-only within a version".
		fmt.Fprintf(&b, "policy=%s\n", s.Policy)
	}
	return b.String()
}

// Key returns the content address of the spec: the lowercase hex SHA-256 of
// its canonical encoding.
func (s RunSpec) Key() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}
