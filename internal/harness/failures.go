package harness

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/policy"
)

// FailureKind names where a run failure was created. Consumers decide on
// the kind, never on a failure's text: the farm retries a panic or a
// deadline and fails every other kind at once, and clearchaos counts only a
// detector's verdict as a caught fault.
type FailureKind string

const (
	// FailOther is every failure not named below: an unknown benchmark, a
	// setup error, a run past its MaxTicks budget, a farm transport error.
	FailOther FailureKind = ""
	// FailPanic: the run, or the farm worker executing it, panicked.
	FailPanic FailureKind = "panic"
	// FailDeadline: the run exceeded its host wall deadline.
	FailDeadline FailureKind = "deadline"
	// FailOracle: the invariant oracle found a violation, livelock included.
	FailOracle FailureKind = "oracle"
	// FailVerification: the workload's post-run verification failed.
	FailVerification FailureKind = "verification"
)

// kindError carries a FailureKind on an error chain from the site that
// creates the failure to RunChecked. Its text is the wrapped error's, so
// tagging an error changes no message.
type kindError struct {
	kind FailureKind
	err  error
}

func (e *kindError) Error() string { return e.err.Error() }
func (e *kindError) Unwrap() error { return e.err }

// withKind tags err with kind; a nil err stays nil.
func withKind(kind FailureKind, err error) error {
	if err == nil {
		return nil
	}
	return &kindError{kind: kind, err: err}
}

// RunFailure is the structured record of one failed configuration run: the
// sweep and the chaos campaign surface these instead of aborting the whole
// matrix when a single cell crashes, deadlocks, or trips a detector.
type RunFailure struct {
	Benchmark  string
	Config     ConfigID
	RetryLimit int
	Seed       uint64
	// Policy is the retry policy the run ran under (zero = the default).
	Policy policy.Spec
	// Kind is where the failure was created.
	Kind FailureKind
	// Reason is the human-readable failure cause (error text, oracle
	// verdict, or panic value).
	Reason string
	// Stack is the goroutine stack at the recovery point; empty unless the
	// run panicked.
	Stack string
}

// String names the failed run and its reason; the policy is named only when
// it is not the default, so default-policy lines read as they always have.
func (f *RunFailure) String() string {
	pol := ""
	if !f.Policy.IsDefault() {
		pol = " policy=" + f.Policy.Canonical()
	}
	return fmt.Sprintf("%s/%s retry=%d seed=%d%s: %s",
		f.Benchmark, f.Config, f.RetryLimit, f.Seed, pol, f.Reason)
}

// Failure returns the record of p failing with a failure of kind for
// reason: the one place a RunFailure is built from the run it describes.
func (p RunParams) Failure(kind FailureKind, reason string) *RunFailure {
	return &RunFailure{
		Benchmark:  p.Benchmark,
		Config:     p.Config,
		RetryLimit: p.RetryLimit,
		Seed:       p.Seed,
		Policy:     p.Policy,
		Kind:       kind,
		Reason:     reason,
	}
}

// RunChecked executes Run with panic isolation: a crash inside the simulator
// becomes a RunFailure carrying the stack instead of killing the caller's
// sweep. Exactly one of the results is non-nil.
func RunChecked(p RunParams) (res *RunResult, fail *RunFailure) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			fail = p.Failure(FailPanic, fmt.Sprintf("panic: %v", r))
			fail.Stack = string(debug.Stack())
		}
	}()
	r, err := Run(p)
	if err != nil {
		kind := FailOther
		var ke *kindError
		if errors.As(err, &ke) {
			kind = ke.kind
		}
		return nil, p.Failure(kind, err.Error())
	}
	return r, nil
}
