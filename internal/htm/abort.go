// Package htm provides the baseline hardware-transactional-memory machinery
// of the paper's evaluation: the abort taxonomy of Figure 11, the global
// fallback lock protocol of §2.1, and the PowerTM power token of §5.2. The
// per-core execution engine lives in internal/cpu; this package holds the
// shared, policy-level pieces.
package htm

// AbortReason records why an AR attempt failed. The reasons map onto the
// four buckets of Figure 11.
type AbortReason int

const (
	// AbortNone: no abort (sentinel).
	AbortNone AbortReason = iota
	// AbortMemoryConflict: a data conflict, detected either by an incoming
	// invalidation hitting the read/write set (requester-wins) or by our
	// own request being NACKed by a prioritised holder.
	AbortMemoryConflict
	// AbortExplicitFallback: the thread attempted to start a speculative AR
	// but found the fallback lock taken.
	AbortExplicitFallback
	// AbortOtherFallback: the thread was executing speculatively when
	// another thread took the fallback lock (invalidation of the
	// subscribed lock line).
	AbortOtherFallback
	// AbortCapacity: speculative resources exhausted (L1 set conflict
	// evicting a tracked line, or store-queue overflow).
	AbortCapacity
	// AbortExplicit: the program executed XAbort.
	AbortExplicit
	// AbortDeviation: an S-CL or NS-CL re-execution touched a line outside
	// the discovery-learned set.
	AbortDeviation
	// AbortSpurious: an injected environmental abort (interrupt, TLB
	// shootdown) landing inside the speculative window; produced only by the
	// internal/fault injector. Counts toward the retry limit like any
	// non-fallback abort.
	AbortSpurious
	// NumAbortReasons is the enum size (sentinel; not a reason).
	NumAbortReasons
)

// ParseAbortReason inverts String for the named reasons (AbortNone
// excluded).
func ParseAbortReason(s string) (AbortReason, bool) {
	for r := AbortNone + 1; r < NumAbortReasons; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return AbortNone, false
}

func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortMemoryConflict:
		return "memory-conflict"
	case AbortExplicitFallback:
		return "explicit-fallback"
	case AbortOtherFallback:
		return "other-fallback"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	case AbortDeviation:
		return "deviation"
	case AbortSpurious:
		return "spurious"
	}
	return "unknown"
}

// Bucket is the Figure 11 grouping.
type Bucket int

const (
	BucketMemoryConflict Bucket = iota
	BucketExplicitFallback
	BucketOtherFallback
	BucketOthers
	NumBuckets
)

func (b Bucket) String() string {
	switch b {
	case BucketMemoryConflict:
		return "memory-conflict"
	case BucketExplicitFallback:
		return "explicit-fallback"
	case BucketOtherFallback:
		return "other-fallback"
	case BucketOthers:
		return "others"
	}
	return "unknown"
}

// BucketOf maps an abort reason to its Figure 11 bucket.
func BucketOf(r AbortReason) Bucket {
	switch r {
	case AbortMemoryConflict:
		return BucketMemoryConflict
	case AbortExplicitFallback:
		return BucketExplicitFallback
	case AbortOtherFallback:
		return BucketOtherFallback
	default:
		return BucketOthers
	}
}

// CountsTowardRetryLimit reports whether an abort of this kind increments
// the counter that eventually sends the AR to the fallback path. Fallback-
// related aborts do not (§7, "certain types of aborts do not increase the
// counter").
func CountsTowardRetryLimit(r AbortReason) bool {
	switch r {
	case AbortExplicitFallback, AbortOtherFallback:
		return false
	}
	return true
}
