package harness

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/check"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// decodeRecord reads the JSON that EncodeCacheRecord writes in one pass and
// without reflection: each member is matched by its exact name and stored
// straight into its field. It accepts a subset of what json.Unmarshal
// accepts into a CacheRecord, and for every input it accepts it returns the
// record json.Unmarshal returns:
//   - member names must match exactly (encoding/json also folds case), and
//     a member the schema does not have is an error (encoding/json skips it);
//   - the "spec" member EncodeCacheRecord opens with, which CacheRecord
//     does not keep, must be a string; it is checked, then dropped;
//   - an array holds exactly as many elements as its Go array;
//   - null is accepted only where the encoder can write it, for a pointer
//     or a map;
//   - an integer is a plain decimal literal in its type's range, and so is
//     an AR id key;
//   - a repeated member overwrites a scalar or an array and merges into an
//     object or a map, as encoding/json does;
//   - only whitespace may follow the record.
//
// Anything else is an error, which LookupCached counts as a miss and
// quarantines. The decoder never panics: every read is bounds-checked and
// every loop consumes input or stops at the first error.
func decodeRecord(b []byte) (*CacheRecord, error) {
	d := recordDecoder{buf: b}
	rec := new(CacheRecord)
	for first := true; ; first = false {
		name, ok := d.member(first)
		if !ok {
			break
		}
		switch string(name) {
		case "spec":
			d.str(false)
		case "stats":
			if d.null() {
				rec.Stats = nil
			} else {
				if rec.Stats == nil {
					rec.Stats = new(stats.Run)
				}
				d.run(rec.Stats)
			}
		case "dir":
			d.dir(&rec.Dir)
		case "energy":
			rec.Energy = d.float()
		case "faults":
			if d.null() {
				rec.Faults = nil
			} else {
				if rec.Faults == nil {
					rec.Faults = new(fault.Stats)
				}
				d.faults(rec.Faults)
			}
		case "oracle":
			if d.null() {
				rec.Oracle = nil
			} else {
				if rec.Oracle == nil {
					rec.Oracle = new(check.Report)
				}
				d.report(rec.Oracle)
			}
		default:
			d.unknown(name)
		}
	}
	d.skipSpace()
	if d.err == nil && d.pos != len(d.buf) {
		d.fail("data after the record")
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}

// recordDecoder is the cursor of decodeRecord. The first error sticks:
// every later read returns a zero value and consumes nothing.
type recordDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *recordDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.pos, what)
	}
}

func (d *recordDecoder) unknown(name []byte) {
	d.fail(fmt.Sprintf("unknown member %q", name))
}

func (d *recordDecoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and consumes c if it comes next.
func (d *recordDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.err == nil && d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *recordDecoder) expect(c byte) {
	if !d.consume(c) {
		d.fail("want " + strconv.QuoteRune(rune(c)))
	}
}

// null consumes a null literal if one comes next.
func (d *recordDecoder) null() bool {
	d.skipSpace()
	if d.err == nil && bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// member steps through the members of an object. With first set it
// consumes the opening brace, otherwise the comma before the next member.
// It returns the next member's raw name, with the colon after it consumed,
// or false at the closing brace and on an error. The name is not
// unescaped: no name of the schema needs an escape, so an escaped name is
// unknown.
func (d *recordDecoder) member(first bool) (name []byte, ok bool) {
	if first {
		d.expect('{')
		if d.consume('}') {
			return nil, false
		}
	} else if !d.consume(',') {
		d.expect('}')
		return nil, false
	}
	if !d.consume('"') {
		d.fail("want a member name")
		return nil, false
	}
	end := bytes.IndexByte(d.buf[d.pos:], '"')
	if end < 0 {
		d.fail("unterminated member name")
		return nil, false
	}
	name = d.buf[d.pos : d.pos+end]
	d.pos += end + 1
	d.expect(':')
	return name, d.err == nil
}

// uint reads an unsigned decimal integer.
func (d *recordDecoder) uint() uint64 {
	v, ok := parseUint(d.number())
	if !ok {
		d.fail("want an unsigned integer")
	}
	return v
}

// int reads a signed decimal integer.
func (d *recordDecoder) int() int {
	v, ok := parseInt(d.number())
	if !ok {
		d.fail("want an integer")
	}
	return v
}

// float reads a JSON number as strconv.ParseFloat reads it, which is what
// encoding/json does.
func (d *recordDecoder) float() float64 {
	lit := d.number()
	if d.err != nil {
		return 0
	}
	if !validNumber(lit) {
		d.fail("want a number")
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail("number out of range")
		return 0
	}
	return f
}

// number returns the run of bytes a JSON number can be made of that comes
// next; the caller checks its grammar.
func (d *recordDecoder) number() []byte {
	d.skipSpace()
	if d.err != nil {
		return nil
	}
	start := d.pos
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; {
		case '0' <= c && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			d.pos++
		default:
			return d.buf[start:d.pos]
		}
	}
	return d.buf[start:]
}

// uints reads an array of exactly len(dst) unsigned integers into dst.
func (d *recordDecoder) uints(dst []uint64) {
	d.expect('[')
	for i := range dst {
		if i > 0 {
			d.expect(',')
		}
		dst[i] = d.uint()
	}
	d.expect(']')
}

// str reads a string the way encoding/json unquotes it: escapes are
// decoded, a \u escape of an unpaired surrogate and each byte of an invalid
// UTF-8 sequence become U+FFFD, and a control character is an error. With
// keep set, the builder is sized to the quoted text, which bounds the result
// unless U+FFFD replaces short sequences, so a string costs one allocation.
// With keep unset the string is checked the same way, nothing is built, and
// str returns "".
func (d *recordDecoder) str(keep bool) string {
	if !d.consume('"') {
		d.fail("want a string")
		return ""
	}
	var out strings.Builder
	if keep {
		end := d.pos
		for end < len(d.buf) && d.buf[end] != '"' {
			if d.buf[end] == '\\' {
				end++
			}
			end++
		}
		out.Grow(min(end, len(d.buf)) - d.pos)
	}
	i, plain := d.pos, d.pos // plain: the first byte not yet copied to out
	for i < len(d.buf) {
		c := d.buf[i]
		var r rune // the rune the n bytes at i stand for
		n := 1
		switch {
		case c == '"':
			if keep {
				out.Write(d.buf[plain:i])
			}
			d.pos = i + 1
			return out.String()
		case c < ' ':
			d.pos = i
			d.fail("control character in string")
			return ""
		case c < utf8.RuneSelf && c != '\\':
			i++
			continue
		case c >= utf8.RuneSelf:
			var size int
			if r, size = utf8.DecodeRune(d.buf[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
		case i+1 >= len(d.buf):
			i++
			continue
		default:
			n = 2
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				r = rune(e)
			case 'b':
				r = '\b'
			case 'f':
				r = '\f'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case 't':
				r = '\t'
			case 'u':
				if r = hex4(d.buf[i:]); r < 0 {
					d.pos = i
					d.fail("bad \\u escape")
					return ""
				}
				n = 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, hex4(d.buf[i+6:])); pair != utf8.RuneError {
						r, n = pair, 12
					} else {
						r = utf8.RuneError
					}
				}
			default:
				d.pos = i
				d.fail("bad escape")
				return ""
			}
		}
		if keep {
			out.Write(d.buf[plain:i])
			out.WriteRune(r)
		}
		i += n
		plain = i
	}
	d.pos = i
	d.fail("unterminated string")
	return ""
}

// hex4 decodes the \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// parseUint parses a JSON integer literal without a sign: decimal digits,
// no leading zero, at most 2⁶⁴ − 1.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		digit := uint64(c - '0')
		if v > (math.MaxUint64-digit)/10 {
			return 0, false
		}
		v = v*10 + digit
	}
	return v, true
}

// parseInt parses a JSON integer literal that fits an int.
func parseInt(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, ok := parseUint(b)
	switch {
	case !ok:
		return 0, false
	case neg && u <= -math.MinInt:
		return -int(u), true
	case !neg && u <= math.MaxInt:
		return int(u), true
	}
	return 0, false
}

// validNumber reports whether b is a JSON number literal.
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(b)
}

// run reads a stats.Run object into r.
func (d *recordDecoder) run(r *stats.Run) {
	for first := true; ; first = false {
		name, ok := d.member(first)
		if !ok {
			return
		}
		switch string(name) {
		case "Cycles":
			r.Cycles = sim.Tick(d.uint())
		case "Commits":
			r.Commits = d.uint()
		case "CommitsByMode":
			d.uints(r.CommitsByMode[:])
		case "CommitsByRetries":
			d.uints(r.CommitsByRetries[:])
		case "Aborts":
			r.Aborts = d.uint()
		case "AbortsByBucket":
			d.uints(r.AbortsByBucket[:])
		case "Instructions":
			r.Instructions = d.uint()
		case "AbortedInstructions":
			r.AbortedInstructions = d.uint()
		case "DiscoveryCycles":
			r.DiscoveryCycles = sim.Tick(d.uint())
		case "DiscoveryRuns":
			r.DiscoveryRuns = d.uint()
		case "LinesLocked":
			r.LinesLocked = d.uint()
		case "LockRetries":
			r.LockRetries = d.uint()
		case "SCLAttempts":
			r.SCLAttempts = d.uint()
		case "NSCLAttempts":
			r.NSCLAttempts = d.uint()
		case "CRTInsertions":
			r.CRTInsertions = d.uint()
		case "L1Accesses":
			r.L1Accesses = d.uint()
		case "RetryPairs":
			r.RetryPairs = d.uint()
		case "ImmutableSmallPairs":
			r.ImmutableSmallPairs = d.uint()
		case "FallbackAcquisitions":
			r.FallbackAcquisitions = d.uint()
		case "PowerClaims":
			r.PowerClaims = d.uint()
		case "PolicyOverrides":
			r.PolicyOverrides = d.uint()
		case "PolicyBackoffTicks":
			r.PolicyBackoffTicks = d.uint()
		case "PolicyNonSpecEntries":
			r.PolicyNonSpecEntries = d.uint()
		case "PerAR":
			d.perAR(r)
		case "LatencyHist":
			d.uints(r.LatencyHist[:])
		default:
			d.unknown(name)
		}
	}
}

// perAR reads the PerAR map, keyed by the AR's program id.
func (d *recordDecoder) perAR(r *stats.Run) {
	if d.null() {
		r.PerAR = nil
		return
	}
	if r.PerAR == nil {
		r.PerAR = make(map[int]*stats.ARStats)
	}
	for first := true; ; first = false {
		key, ok := d.member(first)
		if !ok {
			return
		}
		id, ok := parseInt(key)
		if !ok {
			d.fail(fmt.Sprintf("AR id %q is not an integer", key))
			return
		}
		if d.null() {
			r.PerAR[id] = nil
			continue
		}
		ar := new(stats.ARStats)
		d.ar(ar)
		r.PerAR[id] = ar
	}
}

func (d *recordDecoder) ar(a *stats.ARStats) {
	for first := true; ; first = false {
		name, ok := d.member(first)
		if !ok {
			return
		}
		switch string(name) {
		case "Name":
			a.Name = d.str(true)
		case "Commits":
			a.Commits = d.uint()
		case "CommitsByMode":
			d.uints(a.CommitsByMode[:])
		case "Aborts":
			a.Aborts = d.uint()
		default:
			d.unknown(name)
		}
	}
}

func (d *recordDecoder) dir(s *coherence.Stats) {
	for first := true; ; first = false {
		name, ok := d.member(first)
		if !ok {
			return
		}
		switch string(name) {
		case "Reads":
			s.Reads = d.uint()
		case "Writes":
			s.Writes = d.uint()
		case "Invalidations":
			s.Invalidations = d.uint()
		case "Downgrades":
			s.Downgrades = d.uint()
		case "Nacks":
			s.Nacks = d.uint()
		case "Retries":
			s.Retries = d.uint()
		case "Locks":
			s.Locks = d.uint()
		case "Unlocks":
			s.Unlocks = d.uint()
		case "MemoryFetches":
			s.MemoryFetches = d.uint()
		case "Forwards":
			s.Forwards = d.uint()
		case "Hops":
			s.Hops = d.uint()
		default:
			d.unknown(name)
		}
	}
}

func (d *recordDecoder) faults(s *fault.Stats) {
	for first := true; ; first = false {
		name, ok := d.member(first)
		if !ok {
			return
		}
		switch string(name) {
		case "Fired":
			d.uints(s.Fired[:])
		case "ExtraTicks":
			s.ExtraTicks = sim.Tick(d.uint())
		default:
			d.unknown(name)
		}
	}
}

func (d *recordDecoder) report(r *check.Report) {
	for first := true; ; first = false {
		name, ok := d.member(first)
		if !ok {
			return
		}
		switch string(name) {
		case "MaxConflictRetries":
			r.MaxConflictRetries = d.int()
		case "MaxCommitLatency":
			r.MaxCommitLatency = sim.Tick(d.uint())
		default:
			d.unknown(name)
		}
	}
}
