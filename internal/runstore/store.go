package runstore

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Backend is the pluggable result-store interface the harness and the sweep
// farm memoize runs through: opaque JSON payloads keyed by RunSpec.Key().
// *Store is the local-directory implementation and Mem the in-memory one
// (tests, ephemeral farms); S3/redis-style remote stores can slot in without
// touching the harness. Implementations must be safe for concurrent use —
// they sit behind the matrix worker pool and the farm's worker fleet.
type Backend interface {
	// Get returns the payload cached under key, or ok=false on a miss.
	Get(key string) (payload []byte, ok bool, err error)
	// Put persists payload under key; re-putting an existing key overwrites
	// it (identical specs produce identical payloads, so last-writer-wins is
	// harmless).
	Put(key string, payload []byte) error
	// Contains reports whether a record for key exists without reading it.
	Contains(key string) bool
}

var _ Backend = (*Store)(nil)

// DefaultMemEntries bounds the in-memory LRU front of a store opened with
// Open. At ~1–2 KiB per cached run summary this is a few MiB of hot records —
// enough to keep a full default matrix (19 benchmarks x 5 configs x 4 retry
// limits x seeds) resident across a sweep without touching disk twice.
const DefaultMemEntries = 4096

// Store is a concurrency-safe, content-addressed result cache: opaque JSON
// payloads keyed by RunSpec.Key(), persisted as individual records under a
// two-level sharded directory (key[:2]/key.json) with an in-memory LRU front.
//
// Writes are crash-safe: each record is written to a temp file in its shard
// directory and atomically renamed into place, so a sweep killed mid-write
// leaves either the complete record or nothing — never a torn file. A record
// that fails to decode on the harness side is treated as a miss and
// recomputed, so even external corruption only costs time, not correctness.
//
// All methods are safe for concurrent use by the matrix worker pool.
type Store struct {
	dir        string
	maxEntries int

	mu  sync.Mutex
	lru *list.List // front = most recently used
	idx map[string]*list.Element

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

type lruEntry struct {
	key     string
	payload []byte
}

// Open creates (if necessary) and opens the store rooted at dir with the
// default LRU capacity.
func Open(dir string) (*Store, error) {
	return OpenLimited(dir, DefaultMemEntries)
}

// OpenLimited opens the store with an explicit in-memory LRU bound
// (maxEntries <= 0 disables the memory front entirely; every Get reads disk).
func OpenLimited(dir string, maxEntries int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{
		dir:        dir,
		maxEntries: maxEntries,
		lru:        list.New(),
		idx:        make(map[string]*list.Element),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path shards records by the first two hex characters of the key, keeping
// individual directories small even for six-figure sweeps.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// Get returns the payload cached under key, or ok=false when the store holds
// no such record. A hit from disk is promoted into the LRU front. I/O errors
// other than non-existence are returned (and counted as misses): a permission
// problem should surface, not silently force recomputation forever.
//
// A record that is not valid JSON — truncated by a crash that outran the
// temp+rename protocol (a torn shard copied from another host, a disk-level
// corruption) — is quarantined to <key>.corrupt in its shard directory and
// reported as a plain miss: the caller recomputes and the next Put lays down
// a fresh record, while the corpse stays inspectable beside it.
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	s.mu.Lock()
	if el, found := s.idx[key]; found {
		s.lru.MoveToFront(el)
		p := el.Value.(*lruEntry).payload
		s.mu.Unlock()
		s.hits.Add(1)
		return p, true, nil
	}
	s.mu.Unlock()

	data, rerr := os.ReadFile(s.path(key))
	if rerr != nil {
		s.misses.Add(1)
		if os.IsNotExist(rerr) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("runstore: read %s: %w", key, rerr)
	}
	if !json.Valid(data) {
		s.misses.Add(1)
		s.quarantineCorrupt(key)
		return nil, false, nil
	}
	s.remember(key, data)
	s.hits.Add(1)
	return data, true, nil
}

// quarantineCorrupt moves the undecodable record of key out of the lookup
// path (best effort; a failed rename still leaves Get reporting a miss, the
// rerun's Put overwrites in place).
func (s *Store) quarantineCorrupt(key string) {
	src := s.path(key)
	dst := src[:len(src)-len(".json")] + ".corrupt"
	if err := os.Rename(src, dst); err == nil {
		s.corrupt.Add(1)
	}
}

// Contains reports whether the store holds a record for key without reading
// or promoting it (used for resume planning).
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	_, found := s.idx[key]
	s.mu.Unlock()
	if found {
		return true
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Put persists payload under key: temp file + atomic rename, then the LRU
// front. Re-putting an existing key overwrites it (last writer wins, which is
// harmless: identical specs produce identical payloads).
func (s *Store) Put(key string, payload []byte) error {
	dst := s.path(key)
	shardDir := filepath.Dir(dst)
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	tmp, err := os.CreateTemp(shardDir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("runstore: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runstore: close %s: %w", key, err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runstore: commit %s: %w", key, err)
	}
	s.remember(key, payload)
	return nil
}

// remember inserts (key, payload) into the LRU front, evicting the least
// recently used entries past the capacity bound.
func (s *Store) remember(key string, payload []byte) {
	if s.maxEntries <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, found := s.idx[key]; found {
		el.Value.(*lruEntry).payload = payload
		s.lru.MoveToFront(el)
		return
	}
	s.idx[key] = s.lru.PushFront(&lruEntry{key: key, payload: payload})
	for s.lru.Len() > s.maxEntries {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.idx, back.Value.(*lruEntry).key)
	}
}

// Resolve expands a (possibly abbreviated) hex key prefix to the unique
// stored key that starts with it, scanning the sharded directory layout.
// It errors when no record matches or when the prefix is ambiguous —
// offline tools (cleartrace diff) use it to accept short keys the way git
// accepts short object ids. An empty prefix is rejected.
func (s *Store) Resolve(prefix string) (string, error) {
	if prefix == "" {
		return "", fmt.Errorf("runstore: empty key prefix")
	}
	var shards []string
	if len(prefix) >= 2 {
		shards = []string{prefix[:2]}
	} else {
		des, err := os.ReadDir(s.dir)
		if err != nil {
			return "", fmt.Errorf("runstore: %w", err)
		}
		for _, de := range des {
			if de.IsDir() && len(de.Name()) == 2 && de.Name()[:1] == prefix {
				shards = append(shards, de.Name())
			}
		}
	}
	var match string
	for _, shard := range shards {
		des, err := os.ReadDir(filepath.Join(s.dir, shard))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return "", fmt.Errorf("runstore: %w", err)
		}
		for _, de := range des {
			name := de.Name()
			if len(name) <= len(".json") || name[len(name)-len(".json"):] != ".json" {
				continue
			}
			key := name[:len(name)-len(".json")]
			if len(key) < len(prefix) || key[:len(prefix)] != prefix {
				continue
			}
			if match != "" && match != key {
				return "", fmt.Errorf("runstore: key prefix %q is ambiguous (%s, %s, ...)", prefix, match, key)
			}
			match = key
		}
	}
	if match == "" {
		return "", fmt.Errorf("runstore: no record matches key prefix %q", prefix)
	}
	return match, nil
}

// MemLen returns the number of records currently held by the LRU front.
func (s *Store) MemLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Counters returns the store's cumulative hit/miss counts (process lifetime).
func (s *Store) Counters() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// CorruptCount returns how many undecodable records Get quarantined to
// <key>.corrupt (process lifetime).
func (s *Store) CorruptCount() uint64 { return s.corrupt.Load() }
