package harness

import "testing"

// FuzzConfigPolicy feeds arbitrary text to the config+policy grammar. A
// token is refused with an error or accepted, never a panic; and an
// accepted token renders with String() to text that parses back to the
// same configuration and the same canonical policy, so a cell label
// survives being printed and read again.
func FuzzConfigPolicy(f *testing.F) {
	for _, tok := range []string{
		// The ds-clear cells of the repository benchmark.
		"C", "W", "W+ewma", "C+retry:n=2",
		// The README's -policy examples, as config+policy tokens.
		"C+ewma:alpha=0.5,floor=0.3", "C+retry:n=2,backoff=none", "C+clear",
		"W+retry:n=1,backoff=exp", "B+ewma:floor=0.2,alpha=0.25",
		" p ", "M+", "Q", "C+bogus", "C+retry:n=0",
	} {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		cp, err := ParseConfigPolicy(tok)
		if err != nil {
			return
		}
		text := cp.String()
		back, err := ParseConfigPolicy(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", tok, text, err)
		}
		if back.Config != cp.Config || back.Policy.Canonical() != cp.Policy.Canonical() {
			t.Fatalf("%q renders as %q, which parses to %s+%s, want %s+%s",
				tok, text, back.Config, back.Policy.Canonical(), cp.Config, cp.Policy.Canonical())
		}
	})
}
