package harness

import (
	"strings"
	"testing"
	"time"
)

// TestRunCheckedDeadlineRace pins the contract at the deadline/completion
// boundary: whatever wall deadline the caller sets — far past completion,
// far before it, or racing it to the wire — RunChecked produces exactly one
// of (result, failure), never both and never neither. The wall-deadline
// guard only runs between event slices, so a run that finishes its last
// slice just as the deadline expires legitimately wins the race; what must
// never happen is a torn outcome.
func TestRunCheckedDeadlineRace(t *testing.T) {
	p := DefaultRunParams("hashmap", ConfigC)
	p.Cores = 8
	// At 400 operations per thread the run outlasts its first guard slice
	// (check.CheckEvery ticks), so the deadline guard runs before it ends.
	p.OpsPerThread = 400
	p.Seed = 1

	// Measure the undeadlined runtime to aim the racing deadlines at it.
	start := time.Now()
	res, fail := RunChecked(p)
	dur := time.Since(start)
	if fail != nil || res == nil {
		t.Fatalf("reference run failed: %v", fail)
	}

	deadlines := []time.Duration{
		time.Nanosecond, // expired before the first slice
		dur / 16,
		dur / 4,
		dur / 2,
		dur * 3 / 4,
		dur, // dead heat
		dur * 5 / 4,
		dur * 2,
		10 * time.Second, // effectively unbounded
	}
	var succeeded, deadlined int
	for _, d := range deadlines {
		pd := p
		pd.Deadline = d
		res, fail := RunChecked(pd)
		if (res == nil) == (fail == nil) {
			t.Fatalf("deadline %v: res=%v fail=%v — want exactly one non-nil", d, res != nil, fail != nil)
		}
		if fail != nil {
			if !strings.Contains(fail.Reason, "wall deadline") {
				t.Fatalf("deadline %v: failure is not the deadline: %s", d, fail.Reason)
			}
			if fail.Kind != FailDeadline {
				t.Fatalf("deadline %v: failure kind %q, want %q", d, fail.Kind, FailDeadline)
			}
			deadlined++
			continue
		}
		// A completed run must be the full, verified summary — identical to
		// the undeadlined one (the guard is digest-transparent).
		if res.Stats == nil || res.Stats.Cycles == 0 {
			t.Fatalf("deadline %v: survivor carries no stats", d)
		}
		if res.Stats.Digest() != pdReferenceDigest(t, p) {
			t.Fatalf("deadline %v: survivor digest differs from undeadlined run", d)
		}
		succeeded++
	}
	// The generous deadline must always complete, and the 1ns one always
	// fails at the first guard call, which comes before the run ends.
	if succeeded == 0 {
		t.Fatal("no deadline in the sweep allowed the run to complete")
	}
	if deadlined == 0 {
		t.Fatal("no deadline in the sweep stopped the run")
	}
}

// pdReferenceDigest memoizes the undeadlined digest of p for the race test.
var refDigest struct {
	have   bool
	digest string
}

func pdReferenceDigest(t *testing.T, p RunParams) string {
	t.Helper()
	if refDigest.have {
		return refDigest.digest
	}
	res, fail := RunChecked(p)
	if fail != nil {
		t.Fatalf("reference digest run failed: %v", fail)
	}
	refDigest.have = true
	refDigest.digest = res.Stats.Digest()
	return refDigest.digest
}
