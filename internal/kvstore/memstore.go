package kvstore

import (
	"hash/maphash"
	"sort"
	"sync"
)

// memShards is the number of lock shards per table. The pre-processing
// component appends to many distinct pair keys concurrently, so contention is
// spread over shards keyed by hash(key).
const memShards = 32

// MemStore is the in-memory engine: a map of tables, each sharded into
// memShards independently locked maps. It is the default engine for
// experiments (the paper's Cassandra ran on a separate machine; for
// single-host benchmarking an in-memory table is the faithful analogue of a
// warm database).
type MemStore struct {
	mu     sync.RWMutex // guards tables map and closed flag
	tables map[string]*memTable
	seed   maphash.Seed
	closed bool
}

type memTable struct {
	shards [memShards]memShard
}

type memShard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{tables: make(map[string]*memTable), seed: maphash.MakeSeed()}
}

func (s *MemStore) table(name string, create bool) (*memTable, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	t := s.tables[name]
	s.mu.RUnlock()
	if t != nil || !create {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if t = s.tables[name]; t == nil {
		t = &memTable{}
		for i := range t.shards {
			t.shards[i].m = make(map[string][]byte)
		}
		s.tables[name] = t
	}
	return t, nil
}

func (s *MemStore) shard(t *memTable, key string) *memShard {
	return &t.shards[maphash.String(s.seed, key)%memShards]
}

// Get implements Store. The returned slice must not be mutated.
func (s *MemStore) Get(table, key string) ([]byte, bool, error) {
	t, err := s.table(table, false)
	if err != nil || t == nil {
		return nil, false, err
	}
	sh := s.shard(t, key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok, nil
}

// Put implements Store.
func (s *MemStore) Put(table, key string, value []byte) error {
	t, err := s.table(table, true)
	if err != nil {
		return err
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	sh := s.shard(t, key)
	sh.mu.Lock()
	sh.m[key] = cp
	sh.mu.Unlock()
	return nil
}

// Append implements Store.
func (s *MemStore) Append(table, key string, value []byte) error {
	t, err := s.table(table, true)
	if err != nil {
		return err
	}
	sh := s.shard(t, key)
	sh.mu.Lock()
	sh.m[key] = append(sh.m[key], value...)
	sh.mu.Unlock()
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(table, key string) error {
	t, err := s.table(table, false)
	if err != nil || t == nil {
		return err
	}
	sh := s.shard(t, key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
	return nil
}

// Scan implements Store. It snapshots shard keys up front so fn may write to
// the same table (but concurrent writers may or may not be observed).
func (s *MemStore) Scan(table string, fn func(key string, value []byte) error) error {
	t, err := s.table(table, false)
	if err != nil || t == nil {
		return err
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		keys := make([]string, 0, len(sh.m))
		for k := range sh.m {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			sh.mu.RLock()
			v, ok := sh.m[k]
			sh.mu.RUnlock()
			if !ok {
				continue
			}
			if err := fn(k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// DropTable implements Store.
func (s *MemStore) DropTable(table string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	delete(s.tables, table)
	return nil
}

// Tables implements Store.
func (s *MemStore) Tables() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]string, 0, len(s.tables))
	for name, t := range s.tables {
		n := 0
		for i := range t.shards {
			t.shards[i].mu.RLock()
			n += len(t.shards[i].m)
			t.shards[i].mu.RUnlock()
		}
		if n > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Len implements Store.
func (s *MemStore) Len(table string) (int, error) {
	t, err := s.table(table, false)
	if err != nil || t == nil {
		return 0, err
	}
	n := 0
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n += len(t.shards[i].m)
		t.shards[i].mu.RUnlock()
	}
	return n, nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.tables = nil
	return nil
}

// BeginBatch, CommitBatch and AbortBatch implement BatchWriter as no-ops:
// with nothing to recover after a crash every group is trivially atomic, and
// an aborted group's writes stay applied exactly as a failed plain write
// sequence would leave them. The store stays usable after AbortBatch.
func (s *MemStore) BeginBatch() error { return nil }

// CommitBatch implements BatchWriter (no-op, see BeginBatch).
func (s *MemStore) CommitBatch() error { return nil }

// AbortBatch implements BatchWriter (no-op, see BeginBatch).
func (s *MemStore) AbortBatch(error) {}

var _ Store = (*MemStore)(nil)
