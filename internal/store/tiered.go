package store

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TierOptions configures a Tiered store's demotion policy.
type TierOptions struct {
	// MaxHotBytes bounds the hot tier: whenever it grows past this,
	// least-recently-accessed blocks are demoted until it fits again.
	// 0 leaves the hot tier unbounded (age-driven demotion only).
	MaxHotBytes int64
	// DemoteAfter is the idle age at which a policy pass demotes a hot
	// block. 0 makes every pass demote everything not accessed since
	// the previous pass started (useful for tests and ablations; real
	// deployments want an age like 10m).
	DemoteAfter time.Duration
	// Interval runs the background policy loop this often. 0 disables
	// the loop; DemoteNow still works for manual or test-driven passes.
	Interval time.Duration
}

// TierCounters snapshots a Tiered store's traffic split.
type TierCounters struct {
	HotHits    int64 // reads served by the hot tier
	ColdHits   int64 // reads that had to touch the cold tier
	Promotions int64 // cold blocks copied back to hot on read
	Demotions  int64 // hot copies dropped (cold already holds every block)
}

// Tiered composes a fast hot store and a slow cold store into one
// Store: writes go through to both tiers, reads hit the hot tier first
// and transparently promote cold blocks back on a miss, a policy loop
// demotes idle blocks by dropping their hot copy, and every
// contract operation (Keys, Delete, DeletePrefix) spans both
// tiers — so providers, block reports, repair and GC see one logical
// store and a demoted block still counts as present. Build one with
// NewTiered or a "tiered://?hot=...&cold=..." URL.
type Tiered struct {
	hot, cold Store
	opts      TierOptions

	hotHits, coldHits, promotions, demotions atomic.Int64

	writers writerPool

	mu     sync.Mutex
	access map[string]*time.Time // last access per hot-resident key
	stop   chan struct{}
}

// NewTiered composes hot and cold under the given policy, taking
// ownership of both (Close closes them). The background policy loop
// starts immediately when opts.Interval > 0.
func NewTiered(hot, cold Store, opts TierOptions) *Tiered {
	s := &Tiered{
		hot:    hot,
		cold:   cold,
		opts:   opts,
		access: make(map[string]*time.Time),
	}
	if opts.Interval > 0 {
		s.stop = make(chan struct{})
		go s.policyLoop(s.stop)
	}
	return s
}

func (s *Tiered) policyLoop(stop <-chan struct{}) {
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.DemoteNow()
		}
	}
}

// Put implements Store. Cold first: a block is committed only once the
// durable tier holds it; the hot copy is a pure read accelerator.
func (s *Tiered) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cold.Put(key, val); err != nil {
		return err
	}
	if err := s.hot.Put(key, val); err != nil {
		return err
	}
	s.stampLocked(key)
	s.evictLocked()
	return nil
}

// PutWriter implements Store: frames assemble locally and land through
// the tier write path in one shot on Commit, so neither tier ever
// holds a partial block. The writer is recycled, and implements
// Presizer.
func (s *Tiered) PutWriter(key string) (BlockWriter, error) { return s.writers.get(s, key), nil }

func (s *Tiered) install(key string, buf []byte) error { return s.Put(key, buf) }

// Get implements Store, promoting on a hot miss.
func (s *Tiered) Get(key string) ([]byte, error) { return s.GetRange(key, 0, -1) }

// GetRange implements Store. A cold hit promotes the whole block —
// the access pattern that demoted it was cold, the one reading it back
// is likely sequential over the block — then serves the range from the
// promoted copy.
func (s *Tiered) GetRange(key string, off, length int64) ([]byte, error) {
	val, err := s.hot.GetRange(key, off, length)
	if err == ErrNotFound {
		if val, err = s.readCold(key); err != nil {
			return nil, err
		}
		if o, l := clampRange(int64(len(val)), off, length); l < int64(len(val)) {
			val = append([]byte(nil), val[o:o+l]...) // do not pin the block for a piece of it
		}
		return val, nil
	}
	hotHit(s, key, err)
	return val, err
}

// ReadAt implements Store, promoting like GetRange.
func (s *Tiered) ReadAt(key, p []byte, off int64) (int, error) {
	n, err := s.hot.ReadAt(key, p, off)
	if err == ErrNotFound {
		val, err := s.readCold(string(key))
		o, l := clampRange(int64(len(val)), off, int64(len(p)))
		return copy(p, val[o:o+l]), err
	}
	hotHit(s, key, err)
	return n, err
}

// hotHit counts a hot read and stamps its key's access time in place: a
// hit allocates nothing, whichever form its key came in.
func hotHit[K keyBytes](s *Tiered, key K, err error) {
	if err == nil {
		s.hotHits.Add(1)
		s.mu.Lock()
		if at := s.access[string(key)]; at != nil {
			*at = time.Now()
		}
		s.mu.Unlock()
	}
}

// readCold fetches a block the hot tier lacks and promotes it.
func (s *Tiered) readCold(key string) ([]byte, error) {
	val, err := s.cold.Get(key)
	if err == nil {
		s.coldHits.Add(1)
		s.promote(key, val)
	}
	return val, err
}

// promote installs a cold block's value in the hot tier. Best-effort:
// a full hot tier or a raced delete leaves the read correct either way.
func (s *Tiered) promote(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.cold.ReadAt([]byte(key), nil, 0); err != nil {
		return // deleted while we were reading; do not resurrect it
	}
	if err := s.hot.Put(key, val); err != nil {
		return
	}
	s.stampLocked(key)
	s.promotions.Add(1)
	s.evictLocked()
}

// Delete implements Store, removing the key from both tiers.
func (s *Tiered) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.access, key)
	return errors.Join(s.hot.Delete(key), s.cold.Delete(key))
}

// DeletePrefix implements Store: the sweep spans both tiers, so GC
// reclaims demoted blocks too. The count is distinct logical keys.
func (s *Tiered) DeletePrefix(prefix string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, err := s.keysLocked(prefix)
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		delete(s.access, k)
	}
	if _, err := s.hot.DeletePrefix(prefix); err != nil {
		return 0, err
	}
	if _, err := s.cold.DeletePrefix(prefix); err != nil {
		return 0, err
	}
	return len(keys), nil
}

// Keys implements Store: the union of both tiers, each key once —
// block reports list demoted blocks, so the repair plane never
// re-replicates a block for merely being cold.
func (s *Tiered) Keys(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keysLocked(prefix)
}

func (s *Tiered) keysLocked(prefix string) ([]string, error) {
	hotKeys, err := s.hot.Keys(prefix)
	if err != nil {
		return nil, err
	}
	coldKeys, err := s.cold.Keys(prefix)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(hotKeys)+len(coldKeys))
	out := make([]string, 0, len(coldKeys))
	for _, set := range [][]string{coldKeys, hotKeys} {
		for _, k := range set {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out, nil
}

// Stats implements Store. Items/Bytes count the logical contents, which
// the cold tier holds all of; Tiers breaks down physical occupancy.
func (s *Tiered) Stats() Stats {
	hotSt, coldSt := s.TierStats()
	return Stats{
		Items: coldSt.Items,
		Bytes: coldSt.Bytes,
		Tiers: []TierStat{
			{Name: "hot", Items: hotSt.Items, Bytes: hotSt.Bytes},
			{Name: "cold", Items: coldSt.Items, Bytes: coldSt.Bytes},
		},
	}
}

// TierStats returns each tier's physical occupancy.
func (s *Tiered) TierStats() (hot, cold Stats) {
	return s.hot.Stats(), s.cold.Stats()
}

// Counters snapshots the tier traffic counters.
func (s *Tiered) Counters() TierCounters {
	return TierCounters{
		HotHits:    s.hotHits.Load(),
		ColdHits:   s.coldHits.Load(),
		Promotions: s.promotions.Load(),
		Demotions:  s.demotions.Load(),
	}
}

// DemoteNow runs one policy pass synchronously and reports how many
// blocks it demoted: first every hot block idle for DemoteAfter or
// longer (oldest first), then — when MaxHotBytes bounds the hot tier —
// least-recently-used blocks until the tier fits.
func (s *Tiered) DemoteNow() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := time.Now().Add(-s.opts.DemoteAfter)
	type aged struct {
		key string
		at  time.Time
	}
	byAge := make([]aged, 0, len(s.access))
	for k, at := range s.access {
		byAge = append(byAge, aged{k, *at})
	}
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].at.Before(byAge[j].at) })

	n := 0
	rest := byAge[:0]
	for _, a := range byAge {
		if a.at.After(cutoff) {
			rest = append(rest, a)
			continue
		}
		if err := s.demoteLocked(a.key); err != nil {
			return n, err
		}
		n++
	}
	if s.opts.MaxHotBytes > 0 {
		st := s.hot.Stats()
		for _, a := range rest {
			if st.Bytes <= s.opts.MaxHotBytes {
				break
			}
			sz, err := s.sizeOf(a.key)
			if err != nil {
				return n, err
			}
			if err := s.demoteLocked(a.key); err != nil {
				return n, err
			}
			st.Bytes -= sz
			n++
		}
	}
	return n, nil
}

// stampLocked records an access to key, hot-resident now. Caller holds
// s.mu.
func (s *Tiered) stampLocked(key string) {
	now := time.Now()
	if at := s.access[key]; at != nil {
		*at = now
	} else {
		s.access[key] = &now
	}
}

// evictLocked demotes least-recently-used blocks until the hot tier is
// back under MaxHotBytes (called after every hot insert).
func (s *Tiered) evictLocked() {
	if s.opts.MaxHotBytes <= 0 {
		return
	}
	st := s.hot.Stats()
	for st.Bytes > s.opts.MaxHotBytes && len(s.access) > 0 {
		oldest, at := "", time.Time{}
		for k, t := range s.access {
			if oldest == "" || t.Before(at) {
				oldest, at = k, *t
			}
		}
		sz, err := s.sizeOf(oldest)
		if err != nil || s.demoteLocked(oldest) != nil {
			return // eviction is best-effort; the next pass retries
		}
		st.Bytes -= sz
	}
}

func (s *Tiered) sizeOf(key string) (int64, error) {
	val, err := s.hot.Get(key)
	if err == ErrNotFound {
		return 0, nil
	}
	return int64(len(val)), err
}

// demoteLocked drops one block's hot copy. Caller holds s.mu.
func (s *Tiered) demoteLocked(key string) error {
	if err := s.hot.Delete(key); err != nil {
		return err
	}
	delete(s.access, key)
	s.demotions.Add(1)
	return nil
}

// Close implements Store: stops the policy loop and closes both tiers.
func (s *Tiered) Close() error {
	s.mu.Lock()
	if s.stop != nil {
		close(s.stop)
		s.stop = nil
	}
	s.mu.Unlock()
	return errors.Join(s.hot.Close(), s.cold.Close())
}
