package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CacheRecord is the persisted summary of one successful run: everything a
// RunResult carries except the (non-serializable, caller-owned) RunParams.
// It holds only integers, strings and float64s, which the record codec
// carries bit for bit, so a resumed sweep is byte-identical to an
// uninterrupted one. Failures are never cached: a resumed sweep recomputes
// missing *and* failed cells. Exported so offline tools (cleartrace diff)
// can read runstore payloads without re-deriving the schema.
type CacheRecord struct {
	Stats  *stats.Run
	Dir    coherence.Stats
	Energy float64
	Faults *fault.Stats
	Oracle *check.Report
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

// recordHeader opens every record: a magic and the layout version.
const recordHeader = "CLRR\x01"

// EncodeCacheRecord renders the persisted form of a successful run result —
// the exact bytes StoreCached writes and the farm server returns to remote
// clients, so both sides of the wire decode one format. After the header
// comes the canonical spec text the key was derived from, for a reader
// auditing the store; decoders skip it, since the content address already
// guarantees the match. The fields follow in codec.record's order.
func EncodeCacheRecord(res *RunResult) ([]byte, error) {
	return encodeRecord(res.Params.Spec(), &CacheRecord{res.Stats, res.Dir, res.Energy, res.Faults, res.Oracle})
}

func encodeRecord(spec RunSpec, rec *CacheRecord) ([]byte, error) {
	if rec.Stats == nil {
		return nil, errors.New("harness: encode cache record: no stats")
	}
	c := codec{buf: make([]byte, 0, 256+len(spec)+32*len(rec.Stats.PerAR))}
	c.buf = append(c.buf, recordHeader...)
	c.buf = binary.AppendUvarint(c.buf, uint64(len(spec)))
	c.buf = append(c.buf, spec...)
	c.record(rec) // only decoding fails
	return c.buf, nil
}

// DecodeCacheRecord parses a runstore payload. It accepts exactly the bytes
// EncodeCacheRecord writes, so an accepted payload re-encodes to itself, and
// refuses anything else: a wrong header, a non-minimal varint, a per-AR
// table out of id order, a presence flag other than 0 or 1, a length past
// the end, or data after the record. A refused payload is corrupt, torn or
// of a foreign layout. It never panics.
func DecodeCacheRecord(payload []byte) (*CacheRecord, error) {
	rec, _, err := decodeRecord(payload)
	return rec, err
}

// decodeRecord is DecodeCacheRecord that also returns the spec text the
// record carries, as a sub-slice of payload.
func decodeRecord(payload []byte) (*CacheRecord, []byte, error) {
	if len(payload) < len(recordHeader) || string(payload[:len(recordHeader)]) != recordHeader {
		return nil, nil, errors.New("harness: decode cache record: not a run record")
	}
	c := codec{buf: payload, pos: len(recordHeader), decoding: true}
	spec := c.bytes()
	rec := &CacheRecord{Stats: new(stats.Run)}
	c.record(rec)
	if c.pos != len(c.buf) {
		c.fail("data after the record")
	}
	if c.err != nil {
		return nil, nil, fmt.Errorf("harness: decode cache record: %w", c.err)
	}
	return rec, spec, nil
}

// codec walks a CacheRecord's fields in one fixed order. Encoding, it
// appends each field to buf; decoding, it reads each back from buf[pos:]
// into the field. One walk serves both directions, so they cannot drift
// apart. Unsigned counters are minimal uvarints, signed ints zigzag
// varints and float64s 8 little-endian bytes. The first error sticks;
// decoding goes on reading past it, bounds-checked, and the caller
// discards what it read.
type codec struct {
	buf      []byte
	pos      int
	decoding bool
	err      error
}

func (c *codec) record(rec *CacheRecord) {
	c.run(rec.Stats)
	c.uint(&rec.Dir.Reads)
	c.uint(&rec.Dir.Writes)
	c.uint(&rec.Dir.Invalidations)
	c.uint(&rec.Dir.Downgrades)
	c.uint(&rec.Dir.Nacks)
	c.uint(&rec.Dir.Retries)
	c.uint(&rec.Dir.Locks)
	c.uint(&rec.Dir.Unlocks)
	c.uint(&rec.Dir.MemoryFetches)
	c.uint(&rec.Dir.Forwards)
	c.uint(&rec.Dir.Hops)
	c.float(&rec.Energy)
	if f := optional(c, &rec.Faults); f != nil {
		c.uints(f.Fired[:])
		c.tick(&f.ExtraTicks)
	}
	if o := optional(c, &rec.Oracle); o != nil {
		c.int(&o.MaxConflictRetries)
		c.tick(&o.MaxCommitLatency)
	}
}

func (c *codec) run(r *stats.Run) {
	c.tick(&r.Cycles)
	c.uint(&r.Commits)
	c.uints(r.CommitsByMode[:])
	c.uints(r.CommitsByRetries[:])
	c.uint(&r.Aborts)
	c.uints(r.AbortsByBucket[:])
	c.uint(&r.Instructions)
	c.uint(&r.AbortedInstructions)
	c.tick(&r.DiscoveryCycles)
	c.uint(&r.DiscoveryRuns)
	c.uint(&r.LinesLocked)
	c.uint(&r.LockRetries)
	c.uint(&r.SCLAttempts)
	c.uint(&r.NSCLAttempts)
	c.uint(&r.CRTInsertions)
	c.uint(&r.L1Accesses)
	c.uint(&r.RetryPairs)
	c.uint(&r.ImmutableSmallPairs)
	c.uint(&r.FallbackAcquisitions)
	c.uint(&r.PowerClaims)
	c.uint(&r.PolicyOverrides)
	c.uint(&r.PolicyBackoffTicks)
	c.uint(&r.PolicyNonSpecEntries)
	c.perAR(r)
	c.uints(r.LatencyHist[:])
}

// perAR walks the per-AR table: its length, then each entry behind its id,
// in strictly ascending id order, the only order the decoder accepts. An
// empty table decodes as nil, which is how a run without ARs holds it.
func (c *codec) perAR(r *stats.Run) {
	n := uint64(len(r.PerAR))
	c.uint(&n)
	if !c.decoding {
		ids := make([]int, 0, n)
		for id := range r.PerAR {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			c.int(&id)
			c.ar(r.PerAR[id])
		}
		return
	}
	if n == 0 || !c.need(n) { // an entry takes at least one byte
		return
	}
	r.PerAR = make(map[int]*stats.ARStats, n)
	ars := make([]stats.ARStats, n)
	prev := 0
	for i := range ars {
		var id int
		c.int(&id)
		if i > 0 && id <= prev {
			c.fail("AR ids not in ascending order")
		}
		if c.err != nil {
			return
		}
		prev = id
		c.ar(&ars[i])
		r.PerAR[id] = &ars[i]
	}
}

func (c *codec) ar(a *stats.ARStats) {
	c.str(&a.Name)
	c.uint(&a.Commits)
	c.uints(a.CommitsByMode[:])
	c.uint(&a.Aborts)
}

// optional walks the 0/1 presence flag of an optional part. It returns the
// part to walk — allocated when decoding — or nil when the part is absent.
func optional[T any](c *codec, p **T) *T {
	var present uint64
	if *p != nil {
		present = 1
	}
	if c.uint(&present); present > 1 {
		c.fail("presence flag is not 0 or 1")
	} else if present == 1 && c.decoding && c.err == nil {
		*p = new(T)
	}
	return *p
}

func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("offset %d: %s", c.pos, what)
	}
}

// need reports whether n more bytes remain to be read, failing if not.
func (c *codec) need(n uint64) bool {
	if n > uint64(len(c.buf)-c.pos) {
		c.fail("length past the end")
	}
	return c.err == nil
}

// uint walks a uvarint. Decoding, it refuses one that is truncated,
// overflows 64 bits or carries a redundant zero byte.
func (c *codec) uint(v *uint64) {
	switch {
	case !c.decoding:
		c.buf = binary.AppendUvarint(c.buf, *v)
	case c.pos < len(c.buf) && c.buf[c.pos] < 0x80:
		// Most counters are below 128 and take one byte.
		*v = uint64(c.buf[c.pos])
		c.pos++
	default:
		x, n := binary.Uvarint(c.buf[c.pos:])
		switch {
		case n <= 0:
			c.fail("truncated or overflowing varint")
		case n > 1 && c.buf[c.pos+n-1] == 0:
			c.fail("non-minimal varint")
		default:
			*v = x
			c.pos += n
		}
	}
}

func (c *codec) uints(vs []uint64) {
	for i := range vs {
		c.uint(&vs[i])
	}
}

func (c *codec) tick(v *sim.Tick) { c.uint((*uint64)(v)) }

// int walks a signed int zigzag-encoded, so small magnitudes of either sign
// take one byte.
func (c *codec) int(v *int) {
	x := int64(*v)
	u := uint64(x<<1) ^ uint64(x>>63)
	c.uint(&u)
	if x = int64(u>>1) ^ -int64(u&1); int64(int(x)) != x {
		c.fail("int out of range")
	}
	*v = int(x)
}

func (c *codec) float(v *float64) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	} else if c.need(8) {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.pos:]))
		c.pos += 8
	}
}

func (c *codec) str(s *string) {
	if !c.decoding {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
	} else if b := c.bytes(); c.err == nil {
		*s = string(b)
	}
}

// bytes reads a length-prefixed byte string as a sub-slice of the input.
func (c *codec) bytes() []byte {
	var n uint64
	c.uint(&n)
	if !c.need(n) {
		return nil
	}
	c.pos += int(n)
	return c.buf[c.pos-int(n) : c.pos]
}
