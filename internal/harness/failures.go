package harness

import (
	"fmt"
	"runtime/debug"
)

// RunFailure is the structured record of one failed configuration run: the
// sweep and the chaos campaign surface these instead of aborting the whole
// matrix when a single cell crashes, deadlocks, or trips a detector.
type RunFailure struct {
	Benchmark  string
	Config     ConfigID
	RetryLimit int
	Seed       uint64
	// Reason is the human-readable failure cause (error text, oracle
	// verdict, or panic value).
	Reason string
	// Stack is the goroutine stack at the recovery point; empty unless the
	// run panicked.
	Stack string
}

func (f *RunFailure) String() string {
	return fmt.Sprintf("%s/%s retry=%d seed=%d: %s",
		f.Benchmark, f.Config, f.RetryLimit, f.Seed, f.Reason)
}

// Failure returns the record of p failing for reason: the one place a
// RunFailure is built from the run it describes.
func (p RunParams) Failure(reason string) *RunFailure {
	return &RunFailure{
		Benchmark:  p.Benchmark,
		Config:     p.Config,
		RetryLimit: p.RetryLimit,
		Seed:       p.Seed,
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
			fail = p.Failure(fmt.Sprintf("panic: %v", r))
			fail.Stack = string(debug.Stack())
		}
	}()
	r, err := Run(p)
	if err != nil {
		return nil, p.Failure(err.Error())
	}
	return r, nil
}
