package runstore

import "sync"

// Mem is the in-memory Backend: a plain locked map with no persistence. It
// backs tests and ephemeral farm servers (a farm whose whole value is the
// in-flight dedup, not the durable cache).
type Mem struct {
	mu sync.Mutex
	m  map[string][]byte
}

var _ Backend = (*Mem)(nil)

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Get returns the payload stored under key.
func (s *Mem) Get(key string) (payload []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[key]
	return p, ok, nil
}

// Put stores a copy of payload under key, overwriting any previous record.
func (s *Mem) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), payload...)
	return nil
}

// Quarantine deletes the payload under key: nothing outlives the process to
// inspect, so there is no corpse to keep.
func (s *Mem) Quarantine(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

// Len returns the number of stored records.
func (s *Mem) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
