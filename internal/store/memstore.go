package store

import (
	"strings"
	"sync"

	"blobseer/internal/util"
)

const memShards = 16

// MemStore is a sharded in-memory Store. Values are copied on Put and
// Get so callers can reuse buffers freely, and never modified once
// stored, which is what lets it lend them (Lender). A batch is copied
// whole (BatchPutter).
type MemStore struct {
	shards  [memShards]memShard
	writers util.FreeList[*bufWriter] // so a put allocates its block and key, not a writer
}

type memShard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	return s
}

// shard places key by its 32-bit FNV-1a hash, inlined: hash/fnv and
// the []byte(key) copy cost two allocations on every operation.
func shard[K keyBytes](s *MemStore, key K) *memShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &s.shards[h%memShards]
}

// Put implements Store.
func (s *MemStore) Put(key string, val []byte) error {
	cp := append([]byte(nil), val...)
	sh := shard(s, key)
	sh.mu.Lock()
	sh.m[key] = cp
	sh.mu.Unlock()
	return nil
}

// PutBatch implements BatchPutter in two allocations whatever the batch
// holds: the keys are cut from one string, the values from one buffer.
// Each value is capped at its own end, so a lent value never reaches
// its neighbour.
func (s *MemStore) PutBatch(pairs []Pair) error {
	var nk, nv int
	for _, p := range pairs {
		nk, nv = nk+len(p.Key), nv+len(p.Val)
	}
	var kb strings.Builder
	kb.Grow(nk)
	for _, p := range pairs {
		kb.Write(p.Key)
	}
	keys, vals := kb.String(), make([]byte, 0, nv)
	for _, p := range pairs {
		key := keys[:len(p.Key)]
		keys = keys[len(p.Key):]
		vals = append(vals, p.Val...)
		val := vals[len(vals)-len(p.Val) : len(vals) : len(vals)]
		sh := shard(s, key)
		sh.mu.Lock()
		sh.m[key] = val
		sh.mu.Unlock()
	}
	return nil
}

// PutWriter implements Store. Frames accumulate in a private buffer
// whose ownership transfers to the store on Commit (no copy); the
// writer itself is recycled. It implements Presizer.
func (s *MemStore) PutWriter(key string) (BlockWriter, error) {
	w, ok := s.writers.Get()
	if !ok {
		w = &bufWriter{to: s}
	}
	w.key, w.done = key, false
	return w, nil
}

func (s *MemStore) install(key string, buf []byte) {
	sh := shard(s, key)
	sh.mu.Lock()
	sh.m[key] = buf
	sh.mu.Unlock()
}

// lend returns [off, off+length) of key's value as the store holds it:
// never modified in place (Put installs a fresh slice), so safe to read
// without the lock. A map index by string(key) copies nothing.
func lend[K keyBytes](s *MemStore, key K, off, length int64) ([]byte, error) {
	sh := shard(s, key)
	sh.mu.RLock()
	v, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	o, l := clampRange(int64(len(v)), off, length)
	return v[o : o+l : o+l], nil
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) { return s.GetRange(key, 0, -1) }

// GetRange implements Store.
func (s *MemStore) GetRange(key string, off, length int64) ([]byte, error) {
	v, err := lend(s, key, off, length)
	return append([]byte(nil), v...), err
}

// Lend implements Lender.
func (s *MemStore) Lend(key []byte, off, length int64) ([]byte, error) {
	return lend(s, key, off, length)
}

// ReadAt implements Store.
func (s *MemStore) ReadAt(key, p []byte, off int64) (int, error) {
	v, err := lend(s, key, off, int64(len(p)))
	return copy(p, v), err
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	sh := shard(s, key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
	return nil
}

// DeletePrefix implements Store.
func (s *MemStore) DeletePrefix(prefix string) (int, error) {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			if strings.HasPrefix(k, prefix) {
				delete(sh.m, k)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n, nil
}

// Keys implements Store.
func (s *MemStore) Keys(prefix string) ([]string, error) {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	return out, nil
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Items += int64(len(sh.m))
		for _, v := range sh.m {
			st.Bytes += int64(len(v))
		}
		sh.mu.RUnlock()
	}
	return st
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }
