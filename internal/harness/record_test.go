package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// decodeRecordJSON reads a record of the JSON layout the run store kept
// before the codec: encoding/json into a CacheRecord, beside the spec text
// the record opened with. It is the reference the codec is held to.
func decodeRecordJSON(payload []byte) (*CacheRecord, RunSpec, error) {
	var v struct {
		Spec RunSpec
		CacheRecord
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return nil, "", err
	}
	if v.Stats == nil {
		return nil, "", errors.New("no stats")
	}
	return &v.CacheRecord, v.Spec, nil
}

// testRecords returns the JSON run-store records under testdata/records, by
// file name: real records from the clearbench -quick matrix (seed 1), a
// faulted -frontier run and a clearchaos -cache-dir run with its oracle
// report.
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

// encodeJSONRecord re-encodes a JSON record with the codec. It returns the
// encoding and the record and spec encoding/json reads from the JSON.
func encodeJSONRecord(tb testing.TB, js []byte) ([]byte, *CacheRecord, RunSpec) {
	tb.Helper()
	rec, spec, err := decodeRecordJSON(js)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := encodeRecord(spec, rec)
	if err != nil {
		tb.Fatal(err)
	}
	return enc, rec, spec
}

func dumpRecord(rec *CacheRecord) string {
	b, err := json.Marshal(rec)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// fill sets every exported field reachable from v to a distinct non-zero
// value: pointers are allocated, maps get three entries, ints take their
// widest magnitudes and strings carry escapes and invalid UTF-8. A kind it
// does not know fails the test, so no new field can stay out of the round
// trip.
func fill(tb testing.TB, v reflect.Value, n *int) {
	tb.Helper()
	*n++
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(math.MinInt64 + int64(*n))
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) * 1.0000001e-9)
	case reflect.String:
		v.SetString(fmt.Sprintf("ar%d \"q\" \\ / <&> \n\t\x01 \u00e9 \u2028 \U0001F600 \xff", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(tb, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(tb, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(tb, v.Elem(), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		if v.Type().Key().Kind() != reflect.Int {
			tb.Fatalf("fill: %s has key kind %s, which the round trip does not cover", v.Type(), v.Type().Key().Kind())
		}
		for _, k := range []int64{-3, 0, 7} {
			key := reflect.New(v.Type().Key()).Elem()
			key.SetInt(k)
			val := reflect.New(v.Type().Elem()).Elem()
			fill(tb, val, n)
			v.SetMapIndex(key, val)
		}
	default:
		tb.Fatalf("fill: %s has kind %s, which the round trip does not cover", v.Type(), v.Kind())
	}
}

// filledRecord returns a record with every field filled, the optional
// faults and oracle included, and the run params it is encoded under.
func filledRecord(tb testing.TB) (*CacheRecord, RunParams) {
	var rec CacheRecord
	n := 0
	fill(tb, reflect.ValueOf(&rec).Elem(), &n)
	if rec.Faults == nil || rec.Oracle == nil || len(rec.Stats.PerAR) != 3 {
		tb.Fatal("fill left an optional part out")
	}
	return &rec, RunParams{Benchmark: "hash\"map\\\n<&>é", Config: ConfigW, Cores: 4, OpsPerThread: 8, RetryLimit: 2, Seed: 9}
}

// TestCacheRecordRoundTripEveryField fills every field of CacheRecord and
// of the types it nests (stats.Run with PerAR, coherence.Stats, fault.Stats,
// check.Report), the optional faults and oracle included, and requires the
// record back, deep-equal, from EncodeCacheRecord → DecodeCacheRecord, with
// the run's spec text behind the header. A field added to any of those
// types fails it until codec.record walks it.
func TestCacheRecordRoundTripEveryField(t *testing.T) {
	want, p := filledRecord(t)
	payload, err := EncodeCacheRecord(want.Result(p))
	if err != nil {
		t.Fatal(err)
	}
	got, spec, err := decodeRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v\n%q", err, payload)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the record:\n got %s\nwant %s", dumpRecord(got), dumpRecord(want))
	}
	if string(spec) != string(p.Spec()) {
		t.Fatalf("record carries spec %q, want %q", spec, p.Spec())
	}
	if again, err := EncodeCacheRecord(got.Result(p)); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("re-encoding the decoded record gave other bytes (%v)", err)
	}

	// A result without stats has no record: an error, not a panic.
	if _, err := EncodeCacheRecord(&RunResult{Params: p}); err == nil {
		t.Error("a result without stats encoded without an error")
	}
}

// TestDecodeCacheRecordMatchesJSON holds the codec to the JSON layout it
// replaced: each committed JSON record, read by encoding/json and encoded
// with the codec, decodes to a deep-equal record with its spec text intact,
// and every strict prefix of the encoding is refused. The JSON form itself
// is not a record. Mutations of a real encoding pin the strictness rules,
// so that an accepted payload is always the encoder's own output.
func TestDecodeCacheRecordMatchesJSON(t *testing.T) {
	recs := testRecords(t)
	for name, js := range recs {
		enc, want, spec := encodeJSONRecord(t, js)
		got, gotSpec, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the codec carries\n%s\nthe JSON carried\n%s", name, dumpRecord(got), dumpRecord(want))
		}
		if string(gotSpec) != string(spec) {
			t.Fatalf("%s: spec %q, want %q", name, gotSpec, spec)
		}
		if _, err := DecodeCacheRecord(js); err == nil {
			t.Errorf("%s: the JSON record was accepted", name)
		}
		for i := range enc {
			if _, err := DecodeCacheRecord(enc[:i]); err == nil {
				t.Fatalf("%s: accepted the first %d of %d bytes", name, i, len(enc))
			}
		}
		t.Logf("%s: %d bytes as JSON, %d encoded", name, len(js), len(enc))
	}

	// quick-hashmap-C has ARs 1, 2 and 3 and neither faults nor an oracle
	// report, so it ends with two zero flags.
	base, _, spec := encodeJSONRecord(t, recs["quick-hashmap-C.json"])
	h := len(recordHeader)
	_, n := binary.Uvarint(base[h:])
	specLen := base[h : h+n]
	// arID returns the offset of an AR's id: the byte before its name's
	// one-byte length.
	arID := func(name string) int { return bytes.Index(base, []byte(name)) - 2 }
	edit := func(at int, b ...byte) []byte {
		out := slices.Clone(base)
		copy(out[at:], b)
		return out
	}
	splice := func(at, del int, ins ...byte) []byte {
		return slices.Concat(base[:at], ins, base[at+del:])
	}
	if len(spec) < 128 || n != 2 || base[len(base)-2] != 0 || base[len(base)-1] != 0 {
		t.Fatalf("quick-hashmap-C no longer has the shape the cases below assume")
	}
	for _, tc := range []struct {
		name   string
		in     []byte
		accept bool
	}{
		{"base", base, true},
		{"AR 3 renumbered 9", edit(arID("hashmap/lookup"), 18), true},
		{"other energy bits", edit(len(base)-3, 0x41), true},
		{"empty", nil, false},
		{"foreign magic", edit(0, 'X'), false},
		{"unknown version", edit(h-1, 2), false},
		{"non-minimal varint", splice(h, n, specLen[0], specLen[1]|0x80, 0), false},
		{"overflowing varint", splice(h, n, bytes.Repeat([]byte{0xff}, 10)...), false},
		{"spec past the end", splice(h, n, binary.AppendUvarint(nil, uint64(len(base)))...), false},
		{"duplicate AR id", edit(arID("hashmap/remove"), 2), false},
		{"descending AR ids", edit(arID("hashmap/remove"), 0), false},
		{"faults flag 2", edit(len(base)-2, 2), false},
		{"oracle flag 2", edit(len(base)-1, 2), false},
		{"oracle flag without a report", edit(len(base)-1, 1), false},
		{"trailing byte", append(slices.Clone(base), 0), false},
	} {
		_, err := DecodeCacheRecord(tc.in)
		if (err == nil) != tc.accept {
			t.Errorf("%s: decode error %v, want accepted %v", tc.name, err, tc.accept)
		}
	}
	if rec, err := DecodeCacheRecord(edit(arID("hashmap/lookup"), 18)); err != nil || rec.Stats.PerAR[9] == nil || rec.Stats.PerAR[9].Name != "hashmap/lookup" {
		t.Errorf("renumbering an AR did not move its entry: %v", err)
	}
}

// FuzzDecodeCacheRecord feeds arbitrary bytes to the run-store record
// decoder, seeded with the codec encodings of the committed records and of a
// record with every field filled. It never panics, and any payload it
// accepts re-encodes, with the spec text it carries, to the same bytes.
func FuzzDecodeCacheRecord(f *testing.F) {
	recs := testRecords(f)
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		enc, _, _ := encodeJSONRecord(f, recs[name])
		f.Add(enc)
	}
	filled, p := filledRecord(f)
	enc, err := EncodeCacheRecord(filled.Result(p))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, spec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		again, err := encodeRecord(RunSpec(spec), rec)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted %q, which re-encodes to %q (%v)", payload, again, err)
		}
	})
}

// BenchmarkDecodeCacheRecord decodes the codec encoding of the clearbench
// -quick hashmap/C record (seed 1, three ARs). CI holds it to 20 allocs/op.
func BenchmarkDecodeCacheRecord(b *testing.B) {
	payload, _, _ := encodeJSONRecord(b, testRecords(b)["quick-hashmap-C.json"])
	benchmarkDecode(b, payload, func(p []byte) error {
		_, err := DecodeCacheRecord(p)
		return err
	})
}

// BenchmarkDecodeCacheRecordJSON is the encoding/json reference: the same
// record in its 1,370-byte JSON form.
func BenchmarkDecodeCacheRecordJSON(b *testing.B) {
	benchmarkDecode(b, testRecords(b)["quick-hashmap-C.json"], func(p []byte) error {
		_, _, err := decodeRecordJSON(p)
		return err
	})
}

func benchmarkDecode(b *testing.B, payload []byte, decode func([]byte) error) {
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(payload); err != nil {
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
