package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Store tests key records by literal hex strings: the store never derives a
// key, it only files payloads under the ones it is given.
const (
	keyA = "5d41402abc4b2a76b9719d911017c592ae1f8e5bd4e5f6a7b8c9d0e1f2a3b4c5"
	keyB = "c0ffee0000000000000000000000000000000000000000000000000000000001"
)

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyA
	if _, ok, err := st.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	payload := []byte(`{"cycles":42}`)
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(key)
	if err != nil || !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v, %v", got, ok, err)
	}

	// The record lives at the sharded path, and nothing else (no leftover
	// temp files from the atomic write protocol).
	p := filepath.Join(st.Dir(), key[:2], key+".rec")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("record not at sharded path: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(st.Dir(), key[:2]))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := keyB
	if err := st.Put(key, []byte(`"persisted"`)); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory (a resumed sweep in a new
	// process) serves the record from disk.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.Get(key)
	if err != nil || !ok || string(got) != `"persisted"` {
		t.Fatalf("reopened Get = %q, %v, %v", got, ok, err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := strings.Repeat(fmt.Sprintf("%x", i%16), 64)
				payload := []byte(fmt.Sprintf(`{"seed":%d}`, i%16))
				if err := st.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := st.Get(key)
				if err != nil || !ok || string(got) != string(payload) {
					t.Errorf("worker %d: Get = %q, %v, %v", w, got, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStoreCorruptRecordQuarantined(t *testing.T) {
	// The store returns truncated and invalid records as they are: the
	// reader judges them and calls Quarantine, which renames the bad file to
	// <key>.corrupt beside its shard so a crashed (or bit-flipped) cache
	// never wedges a lookup, and the rerun's Put lays down a fresh record at
	// the original path.
	cases := map[string][]byte{
		"truncated": []byte(`{"spec":"runspec/v1","stats":{"cyc`),
		"invalid":   []byte(`not json at all`),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := keyA
			if err := st.Put(key, []byte(`{"ok":true}`)); err != nil {
				t.Fatal(err)
			}
			recPath := filepath.Join(dir, key[:2], key+".rec")
			if err := os.WriteFile(recPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}

			got, ok, err := st.Get(key)
			if err != nil || !ok || string(got) != string(bad) {
				t.Fatalf("corrupt Get = %q, %v, %v; want the stored bytes", got, ok, err)
			}
			st.Quarantine(key)
			if _, err := os.Stat(recPath); !os.IsNotExist(err) {
				t.Fatalf("corrupt record still at lookup path: %v", err)
			}
			quarantined := filepath.Join(dir, key[:2], key+".corrupt")
			moved, err := os.ReadFile(quarantined)
			if err != nil {
				t.Fatalf("quarantined file: %v", err)
			}
			if string(moved) != string(bad) {
				t.Fatalf("quarantined bytes = %q, want %q", moved, bad)
			}
			if got, ok, err := st.Get(key); err != nil || ok || got != nil {
				t.Fatalf("Get after quarantine = %q, %v, %v; want miss without error", got, ok, err)
			}

			// The next Put repairs the slot; the corpse stays for auditing.
			if err := st.Put(key, []byte(`{"ok":true}`)); err != nil {
				t.Fatal(err)
			}
			if payload, ok, err := st.Get(key); err != nil || !ok || string(payload) != `{"ok":true}` {
				t.Fatalf("repaired Get = %q, %v, %v", payload, ok, err)
			}
			if _, err := os.Stat(quarantined); err != nil {
				t.Fatalf("quarantined corpse removed by repair: %v", err)
			}
		})
	}
}

// TestStoreGetReadEdges covers readFile's edges. Records larger than its
// 4 KiB stack buffer, or exactly filling it, come back byte for byte. An
// empty record is a hit with an empty payload: the store does not judge
// it, and the harness's decoder quarantines it. A directory where a record
// should be is an error, not a miss, and a missing key, with or without
// its shard directory, stays a plain miss.
func TestStoreGetReadEdges(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 4095, 4096, 4097, 3*4096 + 17} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + i>>8)
		}
		if err := st.Put(keyA, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := st.Get(keyA); err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte record: Get = %d bytes, %v, %v; want it byte for byte", size, len(got), ok, err)
		}
	}

	if err := st.Put(keyA, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.Get(keyA); err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty record: Get = %q, %v, %v; want a hit with an empty payload", got, ok, err)
	}

	if err := os.MkdirAll(filepath.Join(st.Dir(), keyB[:2], keyB+".rec"), 0o755); err != nil {
		t.Fatal(err)
	}
	var pathErr *os.PathError
	if got, ok, err := st.Get(keyB); ok || got != nil || !errors.As(err, &pathErr) {
		t.Fatalf("directory as record: Get = %q, %v, %v; want an *os.PathError", got, ok, err)
	}

	for _, key := range []string{keyA[:63] + "0", "ee" + keyA[2:]} {
		if got, ok, err := st.Get(key); ok || got != nil || err != nil {
			t.Fatalf("missing key %s: Get = %q, %v, %v; want a plain miss", key, got, ok, err)
		}
	}
}

// TestMemBackend holds both backends to one contract: a miss, a round
// trip, a Put that copies — mutating the caller's slice afterwards must
// not change what Get returns — and a Quarantine after which Get misses
// until a Put restores the key.
func TestMemBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Backend
	}{
		{"Store", func(t *testing.T) Backend {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"Mem", func(*testing.T) Backend { return NewMem() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := tc.open(t)
			if _, ok, err := be.Get(keyA); ok || err != nil {
				t.Fatalf("empty Get = %v, %v", ok, err)
			}
			payload := []byte(`{"cycles":7}`)
			if err := be.Put(keyA, payload); err != nil {
				t.Fatal(err)
			}
			payload[0] = 'X'
			got, ok, err := be.Get(keyA)
			if err != nil || !ok || string(got) != `{"cycles":7}` {
				t.Fatalf("Get = %q, %v, %v", got, ok, err)
			}
			if _, ok, err := be.Get(keyB); ok || err != nil {
				t.Fatalf("Get of another key = %v, %v", ok, err)
			}
			be.Quarantine(keyA)
			if got, ok, err := be.Get(keyA); ok || err != nil {
				t.Fatalf("Get after Quarantine = %q, %v, %v; want a miss", got, ok, err)
			}
			if err := be.Put(keyA, []byte(`{"cycles":8}`)); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := be.Get(keyA); err != nil || !ok || string(got) != `{"cycles":8}` {
				t.Fatalf("Get after re-Put = %q, %v, %v", got, ok, err)
			}
		})
	}
}

func TestStoreResolve(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"aabbccddee00112233",
		"aab0000000aaaaaaaa", // shares "aab" 2-char shard, diverges at char 3
		"f100000000bbbbbbbb",
	}
	for _, k := range keys {
		if err := st.Put(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}

	// Exact key resolves to itself.
	if got, err := st.Resolve(keys[0]); err != nil || got != keys[0] {
		t.Fatalf("Resolve(full) = %q, %v", got, err)
	}
	// Unambiguous multi-char prefix within a shared shard.
	if got, err := st.Resolve("aabb"); err != nil || got != keys[0] {
		t.Fatalf("Resolve(aabb) = %q, %v", got, err)
	}
	// Single-character prefix scans shard directories.
	if got, err := st.Resolve("f"); err != nil || got != keys[2] {
		t.Fatalf("Resolve(f) = %q, %v", got, err)
	}
	// Ambiguous prefix: two keys share "aab".
	if _, err := st.Resolve("aab"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("Resolve(aab) err = %v, want ambiguity", err)
	}
	if _, err := st.Resolve("a"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("Resolve(a) err = %v, want ambiguity", err)
	}
	// No match and empty prefix are errors.
	if _, err := st.Resolve("09"); err == nil || !strings.Contains(err.Error(), "no record") {
		t.Fatalf("Resolve(09) err = %v, want no-match", err)
	}
	if _, err := st.Resolve(""); err == nil {
		t.Fatal("Resolve(\"\") succeeded, want error")
	}
}

// TestStoreResolveStaysInStore feeds Resolve prefixes that are not lowercase
// hex, with a record-shaped file beside the store: ".." used to list the
// store's parent as a shard and resolve to "..outside", which Get then read
// from outside the store. Every such prefix is refused, naming the rule,
// before the directory is read — the store's root is gone by then.
func TestStoreResolveStaysInStore(t *testing.T) {
	root := t.TempDir()
	st, err := Open(filepath.Join(root, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "..outside.rec"), []byte(`{"stolen":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Resolve(".."); err == nil {
		payload, _, _ := st.Get(got)
		t.Fatalf("Resolve(..) = %q (Get reads %q), want an error", got, payload)
	}
	if err := os.Remove(st.Dir()); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"", ".", "..", "../", "./ab", "g", "A", "aB", "ab/", "ab\\x", "0x", strings.Repeat("a", 65)} {
		if got, err := st.Resolve(prefix); err == nil || !strings.Contains(err.Error(), "lowercase hex") {
			t.Errorf("Resolve(%q) = %q, %v; want the hex-prefix error", prefix, got, err)
		}
	}
}

// FuzzStoreResolve feeds arbitrary prefixes to Resolve over a store seeded
// with a few keys, with a record-shaped file beside the store and a stray
// one in its root. Resolve never panics, and any key it returns starts with
// the prefix, is one of the stored keys and is found by Get.
func FuzzStoreResolve(f *testing.F) {
	root := f.TempDir()
	st, err := Open(filepath.Join(root, "cache"))
	if err != nil {
		f.Fatal(err)
	}
	stored := map[string]bool{keyA: true, keyB: true, "aabbccddee00112233": true, "aab0000000aaaaaaaa": true}
	for k := range stored {
		if err := st.Put(k, []byte(`{}`)); err != nil {
			f.Fatal(err)
		}
	}
	for _, p := range []string{filepath.Join(root, "..outside.rec"), filepath.Join(st.Dir(), "..stray.rec")} {
		if err := os.WriteFile(p, []byte(`{}`), 0o644); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []string{"", ".", "..", "../cache", "5", "5d41", keyA, keyA + "0", "aab", "aabb", "c0ffee", "C0FFEE", "xx", "\x00"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prefix string) {
		key, err := st.Resolve(prefix)
		if err != nil {
			return
		}
		if !strings.HasPrefix(key, prefix) || !stored[key] {
			t.Fatalf("Resolve(%q) = %q, not a stored key with that prefix", prefix, key)
		}
		if _, ok, err := st.Get(key); !ok || err != nil {
			t.Fatalf("Resolve(%q) = %q, which Get misses: %v", prefix, key, err)
		}
	})
}

var payloadSink []byte

// BenchmarkStoreGet reads one record through a real Store in a temp
// directory, the read every warm-sweep lookup makes. The payload is the
// committed 1,370-byte JSON form of the clearbench -quick hashmap/C record:
// the store does not judge payloads, and this one is larger than any codec
// record of the matrix. CI holds its allocs/op and B/op to a budget.
func BenchmarkStoreGet(b *testing.B) {
	rec, err := os.ReadFile(filepath.Join("..", "harness", "testdata", "records", "quick-hashmap-C.json"))
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(keyA, rec); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, ok, err := st.Get(keyA)
		if !ok || err != nil {
			b.Fatalf("Get = %v, %v", ok, err)
		}
		payloadSink = payload
	}
}
