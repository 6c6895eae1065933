package runstore

import (
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
	p := filepath.Join(st.Dir(), key[:2], key+".json")
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
	// Truncated and invalid-JSON records are misses, not errors: the bad
	// file is renamed to <key>.corrupt beside its shard so a crashed (or
	// bit-flipped) cache never wedges a lookup, and the rerun's Put lays
	// down a fresh record at the original path.
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
			recPath := filepath.Join(dir, key[:2], key+".json")
			if err := os.WriteFile(recPath, bad, 0o644); err != nil {
				t.Fatal(err)
			}

			got, ok, err := st.Get(key)
			if err != nil || ok || got != nil {
				t.Fatalf("corrupt Get = %q, %v, %v; want miss without error", got, ok, err)
			}
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

// TestMemBackend holds both backends to one contract: a miss, a round
// trip, and a Put that copies — mutating the caller's slice afterwards must
// not change what Get returns.
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
