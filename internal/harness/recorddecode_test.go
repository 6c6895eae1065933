package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// decodeRecordJSON is the reference the single-pass decoder is held to:
// encoding/json into a CacheRecord, with DecodeCacheRecord's stats check.
func decodeRecordJSON(payload []byte) (*CacheRecord, error) {
	var rec CacheRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	if rec.Stats == nil {
		return nil, errors.New("no stats")
	}
	return &rec, nil
}

// testRecords returns the run-store records under testdata/records, by file
// name: real records from the clearbench -quick matrix (seed 1), a faulted
// -frontier run and a clearchaos -cache-dir run with its oracle report.
func testRecords(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("testdata/records/*.json")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no records under testdata/records (%v)", err)
	}
	recs := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		recs[filepath.Base(p)] = b
	}
	return recs
}

// checkAgainstJSON decodes payload with DecodeCacheRecord and, when it is
// accepted, requires encoding/json to accept it too and return the same
// record. It reports whether the decoder accepted.
func checkAgainstJSON(t *testing.T, payload []byte) bool {
	t.Helper()
	got, err := DecodeCacheRecord(payload)
	if err != nil {
		return false
	}
	want, err := decodeRecordJSON(payload)
	if err != nil {
		t.Fatalf("accepted %q, which encoding/json rejects: %v", payload, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %q as\n%s\nencoding/json reads\n%s", payload, dumpRecord(got), dumpRecord(want))
	}
	return true
}

func dumpRecord(rec *CacheRecord) string {
	b, err := json.Marshal(rec)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// fill sets every exported field reachable from v to a distinct non-zero
// value: pointers are allocated, maps get three entries and strings need
// JSON escapes. A kind it does not know fails the test, so no new field
// can stay out of the round trip.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(math.MinInt64 + int64(*n))
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) * 1.0000001e-9)
	case reflect.String:
		v.SetString(fmt.Sprintf("ar%d \"q\" \\ / <&> \n\t\x01 \u00e9 \u2028 \U0001F600", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		if v.Type().Key().Kind() != reflect.Int {
			t.Fatalf("fill: %s has key kind %s, which the round trip does not cover", v.Type(), v.Type().Key().Kind())
		}
		for _, k := range []int64{-3, 0, 7} {
			key := reflect.New(v.Type().Key()).Elem()
			key.SetInt(k)
			val := reflect.New(v.Type().Elem()).Elem()
			fill(t, val, n)
			v.SetMapIndex(key, val)
		}
	default:
		t.Fatalf("fill: %s has kind %s, which the round trip does not cover", v.Type(), v.Kind())
	}
}

// TestCacheRecordRoundTripEveryField fills every field of CacheRecord and
// of the types it nests (stats.Run with PerAR, coherence.Stats, fault.Stats,
// check.Report), the optional faults and oracle included, and requires the
// record back, deep-equal, from EncodeCacheRecord → DecodeCacheRecord. A
// field added to any of those types fails it until the decoder reads it:
// the encoder writes the new member and the decoder refuses an unknown one.
func TestCacheRecordRoundTripEveryField(t *testing.T) {
	var want CacheRecord
	n := 0
	fill(t, reflect.ValueOf(&want).Elem(), &n)
	// EncodeCacheRecord writes the spec of the run's params; this
	// benchmark name needs JSON escapes too.
	p := RunParams{Benchmark: "hash\"map\\\n<&>é", Config: ConfigW, Cores: 4, OpsPerThread: 8, RetryLimit: 2, Seed: 9}
	want.Spec = string(p.Spec())
	if want.Faults == nil || want.Oracle == nil || len(want.Stats.PerAR) != 3 {
		t.Fatal("fill left an optional member out")
	}
	payload, err := EncodeCacheRecord(want.Result(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\"q\"`, `\\`, `\u003c\u0026\u003e`, `\n\t\u0001`, `\u2028`, `"-3":`, `"faults":`, `"oracle":`} {
		if !bytes.Contains(payload, []byte(esc)) {
			t.Fatalf("payload lacks %s, so the round trip does not cover it:\n%s", esc, payload)
		}
	}
	got, err := DecodeCacheRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, payload)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("round trip changed the record:\n got %s\nwant %s", dumpRecord(got), dumpRecord(&want))
	}
	checkAgainstJSON(t, payload)
}

// TestDecodeCacheRecordMatchesJSON runs the decoder over real records and
// over inputs at the edges of its contract. Whatever it accepts, encoding/json
// accepts and decodes to the same record; each case also pins whether the
// decoder accepts it.
func TestDecodeCacheRecordMatchesJSON(t *testing.T) {
	recs := testRecords(t)
	for name, rec := range recs {
		if !checkAgainstJSON(t, rec) {
			t.Errorf("%s: real record rejected", name)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, rec, " \r", "\t "); err != nil {
			t.Fatal(err)
		}
		if !checkAgainstJSON(t, indented.Bytes()) {
			t.Errorf("%s: indented record rejected", name)
		}
		// A record cut anywhere is refused, never a panic.
		for i := range rec {
			if checkAgainstJSON(t, rec[:i]) {
				t.Fatalf("%s: accepted the first %d bytes", name, i)
			}
		}
	}

	base := strings.TrimSuffix(string(recs["quick-hashmap-C.json"]), "}")
	ar := func(members string) string { return `{"stats":{"PerAR":{"1":{` + members + `}}}}` }
	for _, tc := range []struct {
		in     string
		accept bool
	}{
		// A repeated member overwrites a scalar or an array and merges into
		// an object, as encoding/json does.
		{base + `,"energy":1.5}`, true},
		{base + `,"dir":{"Reads":7}}`, true},
		{base + `,"stats":{"Cycles":1,"CommitsByMode":[1,2,3,4]}}`, true},
		{base + `,"stats":{"PerAR":{"1":{"Name":"x"},"9":null}}}`, true},
		{base + `,"stats":{"PerAR":null}}`, true},
		{`{"stats":{},"faults":null,"oracle":null}`, true},
		{`{"stats":{"PerAR":{"-1":null,"0":{},"-0":{"Aborts":3}}}}`, true},
		{`{"stats":{"Cycles":18446744073709551615},"oracle":{"MaxConflictRetries":-9223372036854775808}}`, true},
		{`{"stats":{},"oracle":{"MaxConflictRetries":-0}}`, true},
		{`{"stats":{},"energy":-0}`, true},
		{`{"stats":{},"energy":1E+3}`, true},
		{`{"stats":{},"energy":1.5e-7}`, true},
		{`{"stats":{},"energy":1e-400}`, true},
		{` {"stats" : { } } ` + "\n\t\r", true},
		// Strings unquote as encoding/json unquotes them: escapes, surrogate
		// pairs, and U+FFFD for an unpaired surrogate or invalid UTF-8.
		{ar(`"Name":"a\"\\\/\b\f\n\r\téé😀"`), true},
		{ar(`"Name":"\ud800x\udc00\ud800A\ud83d"`), true},
		{ar("\"Name\":\"\xff\xc3(é\U0001F600\""), true},
		{`{"spec":"","stats":{}}`, true},

		// Member names match exactly; unknown members are refused.
		{`{"Stats":{}}`, false},
		{`{"stats":{"cycles":1}}`, false},
		{`{"st\u0061ts":{}}`, false},
		{`{"stats":{},"extra":1}`, false},
		{ar(`"name":"x"`), false},
		// Only whitespace may follow the record.
		{base + `}{}`, false},
		{base + `}x`, false},
		{base + `},`, false},
		// Integers are plain decimal literals in range.
		{`{"stats":{"Cycles":1.0}}`, false},
		{`{"stats":{"Cycles":1e2}}`, false},
		{`{"stats":{"Cycles":-1}}`, false},
		{`{"stats":{"Cycles":01}}`, false},
		{`{"stats":{"Cycles":18446744073709551616}}`, false},
		{`{"stats":{"Cycles":"1"}}`, false},
		{`{"stats":{"Cycles":null}}`, false},
		{`{"stats":{"Cycles":}}`, false},
		{`{"stats":{},"oracle":{"MaxConflictRetries":9223372036854775808}}`, false},
		{`{"stats":{},"oracle":{"MaxConflictRetries":-9223372036854775809}}`, false},
		{`{"stats":{"PerAR":{"01":null}}}`, false},
		{`{"stats":{"PerAR":{"+1":null}}}`, false},
		{`{"stats":{"PerAR":{"1.5":null}}}`, false},
		{`{"stats":{"PerAR":{"":null}}}`, false},
		// Arrays hold exactly their Go length.
		{`{"stats":{"CommitsByMode":[1,2,3]}}`, false},
		{`{"stats":{"CommitsByMode":[1,2,3,4,5]}}`, false},
		{`{"stats":{"CommitsByMode":[1,2,3,4,]}}`, false},
		{`{"stats":{"CommitsByMode":null}}`, false},
		// Numbers outside JSON or float64.
		{`{"stats":{},"energy":1e400}`, false},
		{`{"stats":{},"energy":NaN}`, false},
		{`{"stats":{},"energy":.5}`, false},
		{`{"stats":{},"energy":1.}`, false},
		{`{"stats":{},"energy":+1}`, false},
		{`{"stats":{},"energy":0x10}`, false},
		{`{"stats":{},"energy":1_0}`, false},
		// Strings with control characters or bad escapes.
		{ar("\"Name\":\"a\x01b\""), false},
		{ar(`"Name":"\x"`), false},
		{ar(`"Name":"\u12"`), false},
		{ar(`"Name":"\u12g4"`), false},
		{ar(`"Name":"abc`), false},
		{ar(`"Name":abc`), false},
		// Structure.
		{``, false},
		{`null`, false},
		{`[]`, false},
		{`{}`, false},
		{`{"stats":null}`, false},
		{`{"stats":{}`, false},
		{`{"stats":{},}`, false},
		{`{,"stats":{}}`, false},
		{`{"stats" {}}`, false},
		{`{"stats":{}}}`, false},
		{`{"stats":nul}`, false},
		{`{"stats":[]}`, false},
		{`{"spec":1,"stats":{}}`, false},
		{"\ufeff" + `{"stats":{}}`, false},
	} {
		if got := checkAgainstJSON(t, []byte(tc.in)); got != tc.accept {
			_, err := DecodeCacheRecord([]byte(tc.in))
			t.Errorf("%q: accepted %v, want %v (%v)", tc.in, got, tc.accept, err)
		}
	}
}

// FuzzDecodeCacheRecord feeds arbitrary bytes to the run-store record
// decoder. It never panics, and whatever it accepts encoding/json accepts
// too, with the same record.
func FuzzDecodeCacheRecord(f *testing.F) {
	for _, rec := range testRecords(f) {
		f.Add(rec)
	}
	f.Add([]byte(`{"stats":{"PerAR":{"-1":null,"0":{"Name":"a\"\\\/\b\f\n\r\té😀\ud800"}}},"faults":null}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkAgainstJSON(t, payload)
	})
}

// BenchmarkDecodeCacheRecord decodes the 1,370-byte hashmap/C record of the
// clearbench -quick matrix (seed 1, three ARs). CI holds it to 20 allocs/op.
func BenchmarkDecodeCacheRecord(b *testing.B) {
	benchmarkDecode(b, DecodeCacheRecord)
}

// BenchmarkDecodeCacheRecordJSON is the encoding/json reference on the same
// record.
func BenchmarkDecodeCacheRecordJSON(b *testing.B) {
	benchmarkDecode(b, decodeRecordJSON)
}

func benchmarkDecode(b *testing.B, decode func([]byte) (*CacheRecord, error)) {
	payload := testRecords(b)["quick-hashmap-C.json"]
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

var keySink string

// BenchmarkRunSpecKey renders and hashes one run's key, as every run-store
// lookup does.
func BenchmarkRunSpecKey(b *testing.B) {
	p := DefaultRunParams("hashmap", ConfigC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = p.Spec().Key()
	}
}
