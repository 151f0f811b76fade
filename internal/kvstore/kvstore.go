// Package kvstore provides the distributed key-value store substrate that
// Caribou's components coordinate through (the paper uses DynamoDB): it
// holds deployment plans, workflow metadata, synchronization-node
// annotations, and collected metrics. The store offers the atomic
// primitive the sync-node protocol of §4 requires: atomic
// read-modify-write updates.
//
// Latency and cost of accesses are accounted by the platform layer, which
// knows the accessor's region; the store itself is a linearizable map safe
// for concurrent use.
package kvstore

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Store is a linearizable key-value store with atomic updates.
// The zero value is not usable; call New.
type Store struct {
	mu   sync.Mutex
	data map[string][]byte
}

// New returns an empty store.
func New() *Store {
	return &Store{
		data: make(map[string][]byte),
	}
}

// Get returns the value stored at key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Put stores value at key, replacing any prior value.
func (s *Store) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = append([]byte(nil), value...)
}

// Delete removes key. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
}

// Update atomically applies fn to the current value at key. fn receives
// the current value (nil if absent) and reports the new value and whether
// to write it. This is the primitive behind the sync-node annotation
// protocol: "atomically update an annotation associated with the edge".
func (s *Store) Update(key string, fn func(cur []byte, exists bool) ([]byte, bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.data[key]
	var curCopy []byte
	if ok {
		curCopy = append([]byte(nil), cur...)
	}
	next, write := fn(curCopy, ok)
	if write {
		s.data[key] = append([]byte(nil), next...)
	}
}

// Len reports the number of stored values.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// PutJSON marshals v and stores it at key.
func (s *Store) PutJSON(key string, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("kvstore: marshal %s: %w", key, err)
	}
	s.Put(key, b)
	return nil
}

// GetJSON unmarshals the value at key into v. It reports whether the key
// existed; a decode failure on an existing key is an error.
func (s *Store) GetJSON(key string, v interface{}) (bool, error) {
	b, ok := s.Get(key)
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(b, v); err != nil {
		return true, fmt.Errorf("kvstore: unmarshal %s: %w", key, err)
	}
	return true, nil
}
