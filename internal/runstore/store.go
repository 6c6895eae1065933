// Package runstore is the on-disk run cache behind resumable sweeps: a
// directory of opaque records, each stored under a hex content key. Every
// simulation run is a pure function of its parameters, so its summary can
// be memoized under a hash of them; the caller derives the key
// (harness.RunParams.Spec().Key()) and owns the payload schema. The store
// never parses a payload: the reader that decodes it judges it, and asks
// for a record it cannot decode to be quarantined. Nothing here imports the
// simulator.
package runstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// Backend is the result-store interface the harness and the sweep farm
// memoize runs through: opaque payloads under content keys. *Store is the
// local-directory implementation and Mem the in-memory one (tests,
// ephemeral farms). Implementations must be safe for concurrent use — they
// sit behind the matrix worker pool and the farm's worker fleet — and Put
// must not retain the caller's slice.
type Backend interface {
	// Get returns the payload cached under key, or ok=false on a miss. The
	// payload is returned as stored, unjudged: decoding it is the caller's.
	Get(key string) (payload []byte, ok bool, err error)
	// Put persists payload under key; re-putting an existing key overwrites
	// it (identical specs produce identical payloads, so last-writer-wins is
	// harmless).
	Put(key string, payload []byte) error
	// Quarantine takes the payload under key out of service, best effort,
	// once its reader has found it corrupt: later Gets miss until a Put
	// repairs the slot.
	Quarantine(key string)
}

var _ Backend = (*Store)(nil)

// Store is a concurrency-safe, content-addressed result cache: opaque
// payloads persisted as individual records under a two-level sharded
// directory (key[:2]/key.rec). Every Get reads the record from disk.
//
// Writes are crash-safe: each record is written to a temp file in its shard
// directory and atomically renamed into place, so a sweep killed mid-write
// leaves either the complete record or nothing — never a torn file — and
// concurrent writers of one key race idempotently. A record that fails to
// decode on the harness side is quarantined and recomputed, so even
// external corruption only costs time, not correctness.
type Store struct {
	dir string // cleaned once by Open; path appends to it
}

// Open creates (if necessary) and opens the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: filepath.Clean(dir)}, nil
}

// recordExt names a record file. A file under another name — the
// <key>.json records of the JSON layout, a quarantined <key>.corrupt — is
// never opened.
const recordExt = ".rec"

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path shards records by the first two hex characters of the key, keeping
// individual directories small even for six-figure sweeps. It appends to
// the root Open cleaned, where filepath.Join would clean the whole path
// again on every lookup.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	const sep = string(filepath.Separator)
	return s.dir + sep + shard + sep + key + recordExt
}

// Get returns the payload cached under key, or ok=false when the store holds
// no such record. I/O errors other than non-existence are returned: a
// permission problem should surface, not silently force recomputation
// forever.
//
// Get returns the bytes it read without judging them. A torn record —
// truncated by a crash that outran the temp+rename protocol, a torn shard
// copied from another host, a disk-level corruption — comes back as it is;
// the reader that fails to decode it calls Quarantine.
func (s *Store) Get(key string) (payload []byte, ok bool, err error) {
	data, err := readFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("runstore: read %s: %w", key, err)
	}
	return data, true, nil
}

// readFile is os.ReadFile in four syscalls: open, a read into a stack
// buffer that holds a whole record, the read that sees EOF, and close. An
// os.File would add the poller's fcntl, an fstat to size the buffer, a
// finalizer and an fd mutex, all for a 0.4–0.9 KB read. A larger file grows
// the buffer onto the heap; the caller always gets an exact-size copy.
// Errors are *os.PathError, as from os.ReadFile, and syscall.Open, Read and
// Close take the same arguments on Unix and Windows, so one path serves both.
func readFile(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	var stack [4096]byte
	data := stack[:0]
	for {
		n, err := syscall.Read(fd, data[len(data):cap(data)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return bytes.Clone(data), nil
		}
		data = data[:len(data)+n]
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// Quarantine renames the record under key to <key>.corrupt in its shard
// directory, where it stays for inspection; the next Get misses and the
// next Put lays down a fresh record. Best effort: if the rename fails, the
// rerun's Put overwrites the record in place.
func (s *Store) Quarantine(key string) {
	p := s.path(key)
	_ = os.Rename(p, p[:len(p)-len(recordExt)]+".corrupt")
}

// Put persists payload under key: temp file + atomic rename. Re-putting an
// existing key overwrites it (last writer wins, which is harmless: identical
// specs produce identical payloads).
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
	return nil
}

// Resolve expands a (possibly abbreviated) hex key prefix to the unique
// stored key that starts with it, scanning the sharded directory layout.
// It errors when no record matches or when the prefix is ambiguous —
// offline tools (cleartrace diff) use it to accept short keys the way git
// accepts short object ids. The prefix comes from the command line, so
// anything but 1–64 lowercase hex digits is refused before the directory
// is read: ".." would otherwise list the store's parent as a shard.
func (s *Store) Resolve(prefix string) (string, error) {
	if !isKeyPrefix(prefix) {
		return "", fmt.Errorf("runstore: key prefix %q is not 1-64 lowercase hex digits", prefix)
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
			key, ok := strings.CutSuffix(de.Name(), recordExt)
			if !ok || !strings.HasPrefix(key, prefix) {
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

// isKeyPrefix reports whether s is 1–64 lowercase hex digits: an
// abbreviation of a hex SHA-256 key.
func isKeyPrefix(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
