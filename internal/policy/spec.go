// Package policy makes the §4.3 next-mode decision a pluggable scenario
// axis. The paper hard-wires its fallback policy — one speculative retry,
// then constrained execution — inside the abort path; this package lifts
// that decision behind a seed-deterministic interface so alternative
// schemes (bounded retry with deterministic backoff, EWMA-adaptive
// speculation) can be expressed, swept, and cached exactly like a machine
// configuration.
//
// Determinism contract: a policy is a pure function of (Spec, Env) plus the
// observation stream it has been fed. It may draw randomness only through
// Context.Rand (the core's own RNG, so the default policy reproduces the
// legacy draw sequence bit-for-bit) or from hashes of seed-derived values;
// it must never consult wall-clock time, global state, or map iteration
// order. Learning state is per-AR (keyed by program id) and per-core:
// cores do not share policy state, mirroring the per-core ERT/ALT/CRT
// tables of the hardware proposal.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind names a built-in policy family. The zero value is the paper-exact
// CLEAR policy, so a zero Spec selects today's behaviour everywhere.
type Kind int

const (
	// KindClear: the paper's §4.3 decision tree verbatim — accept every
	// mechanism proposal, randomized exponential backoff drawn from the
	// core RNG. Bit-identical to the pre-policy implementation.
	KindClear Kind = iota
	// KindRetry: fixed-N retry budget with deterministic FNV-jittered
	// exponential backoff (sapling-style bounded retry).
	KindRetry
	// KindEWMA: per-AR EWMA of speculative success; learns to skip
	// speculation (straight to NS-CL when the footprint is static,
	// fallback otherwise) once an AR's success rate falls below the floor.
	KindEWMA
)

// Default parameter values, applied by Parse so a Spec's Canonical form is
// fully resolved.
const (
	DefaultRetryN  = 4
	DefaultBackoff = "exp"
	DefaultAlpha   = 0.25
	DefaultFloor   = 0.1
)

// Spec is the parsed, normalized description of a policy: the value that
// travels through SystemConfig, RunParams, and (canonically rendered, with
// default-elision) the runstore cache key. The zero value is the default
// CLEAR policy.
type Spec struct {
	Kind Kind

	// Retry-family parameters.
	// N is the conflict-retry budget before fallback.
	N int
	// Backoff selects the jitter shape: "exp" or "none".
	Backoff string

	// EWMA-family parameters.
	// Alpha is the EWMA smoothing factor in (0, 1].
	Alpha float64
	// Floor is the success-rate threshold below which speculation stops.
	Floor float64
}

// IsDefault reports whether the spec selects the default CLEAR policy —
// the case RunSpec elides so every pre-policy cache key stays valid.
func (s Spec) IsDefault() bool { return s.Kind == KindClear }

// Name returns the policy family name.
func (s Spec) Name() string {
	switch s.Kind {
	case KindRetry:
		return "retry"
	case KindEWMA:
		return "ewma"
	default:
		return "clear"
	}
}

// Canonical renders the spec in its unique normalized form: family name,
// then every family parameter in sorted order with resolved values. Two
// specs describing the same policy render identically, which is what makes
// the rendering safe to embed in a content-addressed cache key.
func (s Spec) Canonical() string {
	switch s.Kind {
	case KindRetry:
		n, backoff := s.N, s.Backoff
		if n <= 0 {
			n = DefaultRetryN
		}
		if backoff == "" {
			backoff = DefaultBackoff
		}
		return fmt.Sprintf("retry:backoff=%s,n=%d", backoff, n)
	case KindEWMA:
		alpha, floor := s.Alpha, s.Floor
		if alpha == 0 {
			alpha = DefaultAlpha
		}
		if floor == 0 {
			floor = DefaultFloor
		}
		return fmt.Sprintf("ewma:alpha=%s,floor=%s",
			strconv.FormatFloat(alpha, 'g', -1, 64),
			strconv.FormatFloat(floor, 'g', -1, 64))
	default:
		return "clear"
	}
}

func (s Spec) String() string { return s.Canonical() }

// MarshalText renders the spec for the farm wire: canonical, with the
// default elided to the empty string, as the cache key elides it.
func (s Spec) MarshalText() ([]byte, error) {
	if s.IsDefault() {
		return nil, nil
	}
	return []byte(s.Canonical()), nil
}

// UnmarshalText decodes a spec through Parse.
func (s *Spec) UnmarshalText(b []byte) error {
	spec, err := Parse(string(b))
	if err != nil {
		return err
	}
	*s = spec
	return nil
}

// Grammar is the accepted -policy syntax, quoted by parse errors so a typo
// on any tool's command line names what would have been accepted.
const Grammar = `name[:key=value[,key=value...]] — one of "clear", "retry[:n=<int>,backoff=exp|none]", "ewma[:alpha=<0..1>,floor=<0..1>]"`

// Parse decodes a -policy argument ("clear", "retry:n=4,backoff=exp",
// "ewma:alpha=0.25,floor=0.1") into its normalized spec. The empty string
// selects the default policy.
func Parse(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, nil
	}
	name, params, hasParams := strings.Cut(s, ":")
	kv, err := parseParams(params, hasParams)
	if err != nil {
		return Spec{}, fmt.Errorf("policy %q: %w (grammar: %s)", s, err, Grammar)
	}
	var spec Spec
	switch name {
	case "clear":
		spec = Spec{Kind: KindClear}
		if len(kv) > 0 {
			return Spec{}, fmt.Errorf("policy %q: the clear policy takes no parameters (grammar: %s)", s, Grammar)
		}
	case "retry":
		spec = Spec{Kind: KindRetry, N: DefaultRetryN, Backoff: DefaultBackoff}
		for k, v := range kv {
			switch k {
			case "n":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 || n > 1<<20 {
					return Spec{}, fmt.Errorf("policy %q: n=%q is not an integer in [1, 2^20] (grammar: %s)", s, v, Grammar)
				}
				spec.N = n
			case "backoff":
				if v != "exp" && v != "none" {
					return Spec{}, fmt.Errorf("policy %q: backoff=%q (want exp or none; grammar: %s)", s, v, Grammar)
				}
				spec.Backoff = v
			default:
				return Spec{}, fmt.Errorf("policy %q: unknown parameter %q for retry (want n, backoff; grammar: %s)", s, k, Grammar)
			}
		}
	case "ewma":
		spec = Spec{Kind: KindEWMA, Alpha: DefaultAlpha, Floor: DefaultFloor}
		for k, v := range kv {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("policy %q: %s=%q is not a number (grammar: %s)", s, k, v, Grammar)
			}
			switch k {
			case "alpha":
				if f <= 0 || f > 1 {
					return Spec{}, fmt.Errorf("policy %q: alpha=%q outside (0, 1] (grammar: %s)", s, v, Grammar)
				}
				spec.Alpha = f
			case "floor":
				if f <= 0 || f >= 1 {
					return Spec{}, fmt.Errorf("policy %q: floor=%q outside (0, 1) (grammar: %s)", s, v, Grammar)
				}
				spec.Floor = f
			default:
				return Spec{}, fmt.Errorf("policy %q: unknown parameter %q for ewma (want alpha, floor; grammar: %s)", s, k, Grammar)
			}
		}
	default:
		return Spec{}, fmt.Errorf("unknown policy %q (want clear, retry or ewma; grammar: %s)", name, Grammar)
	}
	return spec, nil
}

// ParseList decodes a policy list separated by semicolons or whitespace
// (commas belong to the per-policy parameter grammar). Duplicate canonical
// forms are rejected: a sweep axis with repeated points is a typo.
func ParseList(s string) ([]Spec, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ';' || r == ' ' || r == '\t' || r == '\n'
	})
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty policy list (separate policies with semicolons, e.g. \"clear;retry:n=4;ewma\")")
	}
	specs := make([]Spec, 0, len(fields))
	seen := map[string]bool{}
	for _, f := range fields {
		spec, err := Parse(f)
		if err != nil {
			return nil, err
		}
		if seen[spec.Canonical()] {
			return nil, fmt.Errorf("policy list %q repeats %s", s, spec.Canonical())
		}
		seen[spec.Canonical()] = true
		specs = append(specs, spec)
	}
	return specs, nil
}

// parseParams splits "k=v,k=v" into a map, rejecting malformed or repeated
// keys. hasParams distinguishes "name:" (empty parameter list, an error)
// from a bare "name".
func parseParams(params string, hasParams bool) (map[string]string, error) {
	if !hasParams {
		return nil, nil
	}
	if params == "" {
		return nil, fmt.Errorf("empty parameter list after %q", ":")
	}
	kv := map[string]string{}
	for _, part := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("parameter %q is not key=value", part)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("parameter %q repeated", k)
		}
		kv[k] = v
	}
	return kv, nil
}

// Names lists the built-in policy family names, sorted (help text).
func Names() []string {
	out := []string{"clear", "ewma", "retry"}
	sort.Strings(out)
	return out
}
