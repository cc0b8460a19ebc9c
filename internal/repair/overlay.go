// Package repair implements BlobSeer's self-healing maintenance plane:
// a scanner that reads published versions' metadata and diffs every
// block's replica set against live membership, and a bounded-concurrency
// executor that drives provider-to-provider re-replication until each
// block is back at its target replication level.
//
// BlobSeer metadata is immutable — a published segment-tree leaf can
// never be rewritten to point at a relocated replica. The repair plane
// therefore records relocations in a *location overlay*: a DHT mapping
// from block key to the extra providers that hold repair copies.
// Readers consult the overlay only after exhausting a block's original
// replica set, so the hot path pays nothing while all originals live;
// version garbage collection purges overlay entries together with their
// blocks.
//
// # Overlay encoding
//
// Overlay entries live in the same metadata DHT as tree nodes, under
// their own key namespace (tree nodes use "t...", blocks "b...", the
// overlay "loc/b..."):
//
//	key:   "loc/" + BlockKey.String()   e.g. "loc/b7/1a2b/3"
//	value: addrs stringslice            (extra provider addresses)
//
// Values are whole-entry replaced on update (read-merge-write by the
// single repair writer); replication and replica fall-through come from
// the DHT client underneath, exactly as for tree nodes.
package repair

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// KV is the overlay's storage: the metadata DHT client in deployments,
// a MemKV in tests and the simulator.
type KV interface {
	Put(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
	Delete(ctx context.Context, key string) error
}

// Overlay maps block keys to the extra replica locations created by
// repair. It implements core.LocationOverlay.
type Overlay struct {
	kv    KV
	addMu [16]slot // striped by block key: Add's read-merge-write, atomic among adders through this Overlay
}

// NewOverlay returns an overlay stored in kv.
func NewOverlay(kv KV) *Overlay {
	o := &Overlay{kv: kv}
	for i := range o.addMu {
		o.addMu[i] = make(slot, 1)
	}
	return o
}

// slot is a one-slot lock for a critical section that waits on the
// network: no sync.Mutex is held across a network wait, so a waiter
// whose context ends leaves at once with its error instead of queueing
// behind a holder that never returns.
type slot chan struct{}

func (s slot) lock(ctx context.Context) error {
	select {
	case s <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s slot) unlock() { <-s }

// overlayKey renders the DHT key of a block's overlay entry.
func overlayKey(k blob.BlockKey) string { return "loc/" + k.String() }

func isNotFound(err error) bool {
	return errors.Is(err, dht.ErrNotFound) || errors.Is(err, store.ErrNotFound)
}

// Get returns the block's extra replica locations (nil when none were
// ever recorded — not an error).
func (o *Overlay) Get(ctx context.Context, key blob.BlockKey) ([]string, error) {
	val, err := o.kv.Get(ctx, overlayKey(key))
	if isNotFound(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(val)
	addrs := r.StringSlice()
	return addrs, r.Err()
}

// Add merges addrs into the block's overlay entry. Adders through one
// Overlay (the one repair daemon of a deployment) are atomic: the
// read-merge-write runs under the key's lock, which a caller whose
// context ends stops waiting for with ctx.Err(). Engines in different
// processes can still overlap (that daemon and an operator's bsfsctl
// decommission), so the write is also verified: the entry is read back
// and re-merged until it contains every address we meant to record.
// Such adders only converge — one that verified and returned can still
// be overwritten by a slower one, whose own verify loop restores the union.
func (o *Overlay) Add(ctx context.Context, key blob.BlockKey, addrs []string) error {
	if len(addrs) == 0 {
		return nil
	}
	mu := o.addMu[(uint64(key.Blob)^key.Nonce^uint64(key.Seq))%uint64(len(o.addMu))]
	if err := mu.lock(ctx); err != nil {
		return err
	}
	defer mu.unlock()
	const attempts = 4
	for i := 0; i < attempts; i++ {
		existing, err := o.Get(ctx, key)
		if err != nil {
			return err
		}
		merged := mergeAddrs(existing, addrs)
		b := wire.NewBuffer(16)
		b.StringSlice(merged)
		if err := o.kv.Put(ctx, overlayKey(key), b.Bytes()); err != nil {
			return err
		}
		back, err := o.Get(ctx, key)
		if err != nil {
			return err
		}
		if containsAll(back, addrs) {
			return nil
		}
	}
	return fmt.Errorf("repair: overlay entry for %s kept losing updates", key)
}

// mergeAddrs returns the sorted union of the two address sets.
func mergeAddrs(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, set := range [][]string{a, b} {
		for _, addr := range set {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	sort.Strings(out)
	return out
}

func containsAll(haystack, needles []string) bool {
	set := make(map[string]bool, len(haystack))
	for _, a := range haystack {
		set[a] = true
	}
	for _, n := range needles {
		if !set[n] {
			return false
		}
	}
	return true
}

// Remove purges the block's overlay entry (version GC: the block is
// gone, its relocation record must not outlive it).
func (o *Overlay) Remove(ctx context.Context, key blob.BlockKey) error {
	return o.kv.Delete(ctx, overlayKey(key))
}

// MemKV is an in-memory KV for tests. Safe for concurrent use.
type MemKV struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemKV returns an empty in-memory overlay store.
func NewMemKV() *MemKV { return &MemKV{m: make(map[string][]byte)} }

// Put implements KV.
func (s *MemKV) Put(_ context.Context, key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
	return nil
}

// Get implements KV.
func (s *MemKV) Get(_ context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return nil, store.ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Delete implements KV.
func (s *MemKV) Delete(_ context.Context, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}
