package harness

import (
	"fmt"
	"strings"

	"repro/internal/policy"
)

// configGrammar is the accepted spelling of a configuration set, quoted by
// every parse error so a typo comes back with the full contract instead of
// a bare "unknown config".
const configGrammar = `letters from BPCWM, compact ("BPCW") or separated ("B,P,C,W")`

// ParseConfig resolves one configuration name (case-insensitive letter) to
// its ConfigID. Every tool that accepts a -config flag decodes it through
// here, so the accepted spellings and the error message are uniform.
func ParseConfig(s string) (ConfigID, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "B":
		return ConfigB, nil
	case "P":
		return ConfigP, nil
	case "C":
		return ConfigC, nil
	case "W":
		return ConfigW, nil
	case "M":
		return ConfigM, nil
	}
	return 0, fmt.Errorf("unknown config %q (want B, P, C, W or M)", s)
}

// MarshalText renders the configuration letter: the JSON form of a ConfigID
// on the farm wire.
func (c ConfigID) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a configuration letter through ParseConfig.
func (c *ConfigID) UnmarshalText(b []byte) error {
	id, err := ParseConfig(string(b))
	if err != nil {
		return err
	}
	*c = id
	return nil
}

// ParseConfigs resolves a configuration set: either a compact letter string
// ("BPCW") or a comma/space-separated list ("B,P,C,W"). Order and duplicates
// are preserved (campaign rotations rely on the order); an empty selection is
// an error. Errors name the offending token and the accepted grammar; a
// token carrying a policy suffix ("C+ewma") is redirected to the flags that
// accept one.
func ParseConfigs(s string) ([]ConfigID, error) {
	tokens := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	out := make([]ConfigID, 0, len(s))
	for _, tok := range tokens {
		if strings.ContainsAny(tok, "+:=") {
			return nil, fmt.Errorf("config set %q: token %q carries a policy suffix, which -configs does not accept (want %s); select the policy with -policy or a config+policy flag instead",
				s, tok, configGrammar)
		}
		for _, r := range tok {
			id, err := ParseConfig(string(r))
			if err != nil {
				return nil, fmt.Errorf("config set %q: bad letter %q in token %q (want %s)",
					s, string(r), tok, configGrammar)
			}
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("config set %q selects nothing (want %s)", s, configGrammar)
	}
	return out, nil
}

// ConfigPolicy pairs a configuration with the retry policy it runs under —
// one axis point of a policy-frontier sweep.
type ConfigPolicy struct {
	Config ConfigID
	Policy policy.Spec
}

// ParseConfigPolicy resolves one "config" or "config+policy" token: the
// configuration letter, optionally followed by '+' and a policy spec in the
// internal/policy grammar ("C", "C+retry:n=2", "W+ewma:alpha=0.5,floor=0.2").
// A bare config runs the default (paper-exact) policy.
func ParseConfigPolicy(s string) (ConfigPolicy, error) {
	tok := strings.TrimSpace(s)
	name, polSpec, hasPol := strings.Cut(tok, "+")
	id, err := ParseConfig(name)
	if err != nil {
		return ConfigPolicy{}, fmt.Errorf("config+policy %q: %w (grammar: CONFIG[+POLICY], config %s, policy per -policy)", s, err, configGrammar)
	}
	cp := ConfigPolicy{Config: id}
	if hasPol {
		cp.Policy, err = policy.Parse(polSpec)
		if err != nil {
			return ConfigPolicy{}, fmt.Errorf("config+policy %q: %w", s, err)
		}
	}
	return cp, nil
}

// String renders the token ParseConfigPolicy accepts, with the default
// policy elided ("C", "C+ewma:alpha=0.25,floor=0.1").
func (cp ConfigPolicy) String() string {
	if cp.Policy.IsDefault() {
		return cp.Config.String()
	}
	return cp.Config.String() + "+" + cp.Policy.Canonical()
}

// ParseConfigPolicies resolves a list of config+policy tokens separated by
// commas or whitespace. Policy parameter lists use commas too
// ("C+retry:n=2,backoff=none,W"): a separated chunk containing '=' cannot
// start a new token — config letters carry no parameters — so it is re-joined
// onto the previous token. Order and duplicates are preserved.
func ParseConfigPolicies(s string) ([]ConfigPolicy, error) {
	chunks := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	var tokens []string
	for _, ch := range chunks {
		if strings.Contains(ch, "=") && !strings.Contains(ch, "+") && len(tokens) > 0 {
			// "backoff=none" after "C+retry:n=2" is a parameter of the
			// previous token's policy, split off by the comma.
			tokens[len(tokens)-1] += "," + ch
			continue
		}
		tokens = append(tokens, ch)
	}
	out := make([]ConfigPolicy, 0, len(tokens))
	for _, tok := range tokens {
		cp, err := ParseConfigPolicy(tok)
		if err != nil {
			return nil, fmt.Errorf("config+policy set %q: %w", s, err)
		}
		out = append(out, cp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("config+policy set %q selects nothing (grammar: CONFIG[+POLICY] tokens, config %s)", s, configGrammar)
	}
	return out, nil
}
