package repair

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/obs"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// The executor's shape.
const (
	parallelRepairs = 4                     // block repairs in flight
	repairAttempts  = 3                     // tries per block
	retryBackoff    = 50 * time.Millisecond // before the first retry, doubled per attempt
)

// Config wires an Engine to a deployment.
type Config struct {
	VM      *vmanager.Client
	PM      *pmanager.Client
	Prov    *provider.Client
	Overlay *Overlay // relocation records (must be non-nil)
}

// Engine is the repair plane: Scan finds under-replicated blocks,
// RunOnce repairs them, Start runs the loop in the background. Safe
// for concurrent use, though runs are serialized internally — two
// overlapping repair passes would race on target selection and copy
// blocks twice.
type Engine struct {
	cfg Config
	reg *obs.Registry

	runMu slot // serializes RunOnce/Decommission

	mu   sync.Mutex
	stop chan struct{}
	last Report
}

// New returns an engine over cfg.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, reg: obs.NewRegistry(), runMu: make(slot, 1)}
	lastGauge := func(pick func(Report) int64) func() int64 {
		return func() int64 { return pick(e.LastReport()) }
	}
	e.reg.GaugeFunc("backlog", lastGauge(func(r Report) int64 { return int64(r.UnderReplicated) }))
	e.reg.GaugeFunc("blocks_scanned", lastGauge(func(r Report) int64 { return int64(r.Blocks) }))
	e.reg.GaugeFunc("lost_blocks", lastGauge(func(r Report) int64 { return int64(r.Lost) }))
	e.reg.GaugeFunc("failed_blocks", lastGauge(func(r Report) int64 { return int64(r.Failed) }))
	return e
}

// Metrics exposes the repair registry (backlog depth, cumulative
// re-replications, retry counts) for HTTP export.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Task is one under-replicated block the scanner found.
type Task struct {
	Key     blob.BlockKey
	Len     int64    // stored bytes (repair traffic accounting)
	Holders []string // live providers currently holding the block (originals + overlay)
	Sources []string // usable copy sources (live, including draining providers)
	Missing int      // replicas to create
}

// Report summarizes one repair pass.
type Report struct {
	Blocks          int // unique live blocks scanned
	UnderReplicated int // blocks below their replication target
	Copies          int // replicas created this pass
	Failed          int // blocks whose repair did not complete
	Lost            int // blocks with no live source left (unrepairable)
	Elapsed         time.Duration
}

// LastReport returns the most recent pass's report.
func (e *Engine) LastReport() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// Copies returns the cumulative number of replicas the engine created —
// the op-count regression tests pin it to exactly the lost blocks.
func (e *Engine) Copies() int64 { return e.reg.Counter("re_replications").Value() }

// membership is the scanner's view of the provider pool.
type membership struct {
	live   map[string]bool // allocation-eligible: alive and not draining
	source map[string]bool // copy-eligible: alive (draining included)
	load   map[string]int64
	addrs  []string // deterministic order
}

func (e *Engine) membership(ctx context.Context) (*membership, error) {
	infos, err := e.cfg.PM.List(ctx)
	if err != nil {
		return nil, fmt.Errorf("repair: membership: %w", err)
	}
	m := &membership{
		live:   make(map[string]bool, len(infos)),
		source: make(map[string]bool, len(infos)),
		load:   make(map[string]int64, len(infos)),
	}
	for _, in := range infos {
		if in.Alive {
			m.source[in.Addr] = true
			if !in.Draining {
				m.live[in.Addr] = true
				m.addrs = append(m.addrs, in.Addr)
				m.load[in.Addr] = in.Blocks
			}
		}
	}
	sort.Strings(m.addrs)
	return m, nil
}

// scannedBlock accumulates one unique block across every version that
// references it.
type scannedBlock struct {
	ref  mdtree.BlockRef
	want int
}

// Scan reads every blob's still-readable published versions, collects
// the unique blocks their descriptors place, and diffs each
// block's replica set (original providers plus overlay relocations)
// against live membership. It returns the repair work list; an empty
// list means the deployment is fully replicated.
func (e *Engine) Scan(ctx context.Context) ([]Task, error) {
	mem, err := e.membership(ctx)
	if err != nil {
		return nil, err
	}
	st, err := e.scanWith(ctx, mem)
	if err != nil {
		return nil, err
	}
	return st.tasks, nil
}

// scanState is one metadata scan's outcome: the repair work list plus
// the recorded-holder map the orphan audit diffs inventory against.
type scanState struct {
	tasks   []Task
	nBlocks int
	holders map[blob.BlockKey]map[string]bool // originals ∪ overlay, live or not
}

// scanWith diffs the block inventory against the given membership
// snapshot.
func (e *Engine) scanWith(ctx context.Context, mem *membership) (*scanState, error) {
	blocks, err := e.collectBlocks(ctx)
	if err != nil {
		return nil, err
	}
	st := &scanState{nBlocks: len(blocks), holders: make(map[blob.BlockKey]map[string]bool, len(blocks))}
	for _, sb := range blocks {
		extras, err := e.cfg.Overlay.Get(ctx, sb.ref.Key)
		if err != nil {
			return nil, fmt.Errorf("repair: overlay lookup %s: %w", sb.ref.Key, err)
		}
		all := dedupAddrs(sb.ref.Providers, extras)
		recorded := make(map[string]bool, len(all))
		var holders, sources []string
		for _, a := range all {
			recorded[a] = true
			if mem.live[a] {
				holders = append(holders, a)
			}
			if mem.source[a] {
				sources = append(sources, a)
			}
		}
		st.holders[sb.ref.Key] = recorded
		missing := sb.want - len(holders)
		if missing <= 0 {
			continue
		}
		st.tasks = append(st.tasks, Task{
			Key:     sb.ref.Key,
			Len:     sb.ref.Len,
			Holders: holders,
			Sources: sources,
			Missing: missing,
		})
	}
	// Deterministic execution order (and stable tests).
	sort.Slice(st.tasks, func(i, j int) bool { return st.tasks[i].Key.String() < st.tasks[j].Key.String() })
	return st, nil
}

// collectBlocks names every block a still-readable published version
// of every blob reads, with its replication target: the blocks of the
// oldest kept version over its whole size, plus those each later
// version wrote itself. The block index names each one, with its
// replicas, from the paged history; no tree node is read. A block an
// aborted version owns reads as a hole and names none, and a block whose
// writer sent no placement is not known to live anywhere.
func (e *Engine) collectBlocks(ctx context.Context) (map[blob.BlockKey]*scannedBlock, error) {
	ids, err := e.cfg.VM.ListBlobs(ctx)
	if err != nil {
		return nil, fmt.Errorf("repair: list blobs: %w", err)
	}
	out := make(map[blob.BlockKey]*scannedBlock)
	for _, id := range ids {
		var owners mdtree.Owners
		var refs []mdtree.BlockRef
		h, err := e.cfg.VM.LatestSince(ctx, id, 0, blob.NoVersion, func(h vmanager.Head, descs []blob.WriteDesc) error {
			if err := owners.Extend(h.Meta, descs); err != nil {
				return err
			}
			for _, d := range descs {
				switch {
				case d.Version == h.Oldest:
					refs = owners.Blocks(refs, h.Meta, d.Version, blob.Range{Len: d.SizeAfter})
				case d.Version > h.Oldest:
					refs = owners.Blocks(refs, h.Meta, d.Version, d.Range())
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("repair: history of blob %d: %w", id, err)
		}
		for _, ref := range refs {
			if _, ok := out[ref.Key]; !ok {
				out[ref.Key] = &scannedBlock{ref: ref, want: h.Meta.Replication}
			}
		}
	}
	return out, nil
}

func dedupAddrs(sets ...[]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, set := range sets {
		for _, a := range set {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// RunOnce performs one scan-and-repair pass: every under-replicated
// block is pushed to freshly chosen live providers, relocations are
// recorded in the overlay, and the pass's report is returned. Repair
// traffic is exactly the missing replicas — blocks already at their
// replication target move zero bytes. A pass waits for the one in
// progress, and returns ctx.Err() if its context ends first.
func (e *Engine) RunOnce(ctx context.Context) (Report, error) {
	if err := e.runMu.lock(ctx); err != nil {
		return Report{}, err
	}
	defer e.runMu.unlock()
	start := time.Now()
	mem, err := e.membership(ctx)
	if err != nil {
		return Report{}, err
	}
	st, err := e.scanWith(ctx, mem)
	if err != nil {
		return Report{}, err
	}
	tasks := st.tasks

	rep := Report{Blocks: st.nBlocks, UnderReplicated: len(tasks)}
	var mu sync.Mutex // guards rep counters and mem.load
	sem := make(chan struct{}, parallelRepairs)
	var wg sync.WaitGroup
	for _, t := range tasks {
		if len(t.Sources) == 0 {
			rep.Lost++
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(t Task) {
			defer func() { <-sem; wg.Done() }()
			mu.Lock()
			targets := pickTargets(mem, t, t.Missing)
			mu.Unlock()
			if len(targets) == 0 {
				mu.Lock()
				rep.Failed++
				mu.Unlock()
				return
			}
			n, err := e.repairBlock(ctx, t, targets)
			mu.Lock()
			rep.Copies += n
			if err != nil {
				rep.Failed++
				// The copies were not made: return the load charge so
				// later passes don't see phantom placement.
				for _, a := range targets[n:] {
					mem.load[a]--
				}
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	e.mu.Lock()
	e.last = rep
	e.mu.Unlock()
	e.reg.Counter("passes").Inc()
	e.reg.Counter("re_replications").Add(int64(rep.Copies))
	if rep.Failed > 0 {
		return rep, fmt.Errorf("repair: %d of %d under-replicated blocks not repaired", rep.Failed, rep.UnderReplicated)
	}
	return rep, nil
}

// pickTargets chooses up to n live providers that do not already hold
// the block, least-loaded first, charging mem.load so concurrent tasks
// spread instead of piling onto one node. Caller holds the pass mutex.
func pickTargets(mem *membership, t Task, n int) []string {
	holding := make(map[string]bool, len(t.Holders)+len(t.Sources))
	for _, a := range t.Holders {
		holding[a] = true
	}
	for _, a := range t.Sources {
		holding[a] = true // a draining source still physically holds the block
	}
	candidates := make([]string, 0, len(mem.addrs))
	for _, a := range mem.addrs {
		if !holding[a] {
			candidates = append(candidates, a)
		}
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		return mem.load[candidates[i]] < mem.load[candidates[j]]
	})
	if len(candidates) > n {
		candidates = candidates[:n]
	}
	for _, a := range candidates {
		mem.load[a]++
	}
	return candidates
}

// repairBlock pushes the block from one of its sources to targets,
// rotating sources and backing off between attempts. It returns the
// number of replicas created (all-or-nothing per chained push, so on
// success that is len(targets)).
func (e *Engine) repairBlock(ctx context.Context, t Task, targets []string) (int, error) {
	backoff := retryBackoff
	var lastErr error
	for attempt := 0; attempt < repairAttempts; attempt++ {
		if attempt > 0 {
			e.reg.Counter("retries").Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			backoff *= 2
		}
		src := t.Sources[attempt%len(t.Sources)]
		if err := e.cfg.Prov.Replicate(ctx, src, t.Key, targets); err != nil {
			lastErr = err
			continue
		}
		if err := e.cfg.Overlay.Add(ctx, t.Key, targets); err != nil {
			// The copies exist but are unrecorded: the next scan still
			// counts the block under-replicated and retries, and the
			// re-push overwrites idempotently.
			return 0, fmt.Errorf("repair: record overlay for %s: %w", t.Key, err)
		}
		return len(targets), nil
	}
	return 0, fmt.Errorf("repair: block %s: %w", t.Key, lastErr)
}

// Orphans audits provider inventory against referenced metadata: every
// live provider's block report (the mBlockReport RPC over
// store.Store.Keys) is diffed against the union of replica sets and
// overlay relocations the scanner derives. A held block counts as an
// orphan when nothing can ever read or reclaim it through this
// provider:
//
//   - its blob is unknown to the version manager;
//   - its write was aborted (the best-effort GC missed this copy);
//   - its version was pruned and no kept version still references it;
//   - the block is referenced, but this provider is in neither the
//     original replica set nor the overlay (a stray copy — e.g. leaked
//     by a repair push whose overlay record was lost, or left behind on
//     a drained provider).
//
// Blocks whose nonce appears in no descriptor are skipped: a write in
// flight stores its blocks before version assignment, so they are
// indistinguishable from future data.
func (e *Engine) Orphans(ctx context.Context) (map[string]int, error) {
	_, orphans, err := e.Status(ctx)
	return orphans, err
}

// Status performs one combined metadata scan and returns both the
// repair work list and the orphan audit — what bsfsctl's providers
// command shows. Callers needing both must use this instead of
// Scan+Orphans, which would each pay a full scan of their own.
func (e *Engine) Status(ctx context.Context) ([]Task, map[string]int, error) {
	mem, err := e.membership(ctx)
	if err != nil {
		return nil, nil, err
	}
	st, err := e.scanWith(ctx, mem)
	if err != nil {
		return nil, nil, err
	}
	orphans, err := e.auditWith(ctx, mem, st.holders)
	if err != nil {
		return nil, nil, err
	}
	return st.tasks, orphans, nil
}

// auditWith diffs each live provider's block report against the
// recorded-holder map from a scan.
func (e *Engine) auditWith(ctx context.Context, mem *membership, holders map[blob.BlockKey]map[string]bool) (map[string]int, error) {
	// Per-blob descriptor tables: nonce -> descriptor, plus prune point.
	type blobInfo struct {
		nonces map[uint64]blob.WriteDesc
		oldest blob.Version
	}
	ids, err := e.cfg.VM.ListBlobs(ctx)
	if err != nil {
		return nil, err
	}
	infos := make(map[blob.ID]*blobInfo, len(ids))
	for _, id := range ids {
		bi := &blobInfo{nonces: make(map[uint64]blob.WriteDesc)}
		h, err := e.cfg.VM.LatestSince(ctx, id, 0, blob.NoVersion, func(_ vmanager.Head, descs []blob.WriteDesc) error {
			for _, d := range descs {
				bi.nonces[d.Nonce] = d
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		bi.oldest = h.Oldest
		infos[id] = bi
	}

	out := make(map[string]int, len(mem.source))
	for addr := range mem.source {
		report, err := e.cfg.Prov.BlockReport(ctx, addr, "")
		if err != nil {
			return nil, fmt.Errorf("repair: block report from %s: %w", addr, err)
		}
		n := 0
		for _, k := range report {
			if set, ok := holders[k]; ok {
				if !set[addr] {
					n++ // stray copy of a live block
				}
				continue
			}
			bi, ok := infos[k.Blob]
			if !ok {
				n++ // unknown blob
				continue
			}
			d, ok := bi.nonces[k.Nonce]
			if !ok {
				continue // possibly an in-flight write; not auditable
			}
			if d.Aborted || d.Version < bi.oldest {
				n++ // aborted or pruned write the GC sweep missed here
			}
		}
		out[addr] = n
	}
	return out, nil
}

// Start launches the background repair loop with the given scan
// period (non-positive intervals are ignored). Stop with Stop. Pass
// errors are reflected in LastReport.
func (e *Engine) Start(interval time.Duration) {
	if interval <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop != nil {
		return // already running
	}
	stop := make(chan struct{})
	e.stop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval*4)
				_, _ = e.RunOnce(ctx)
				cancel()
			}
		}
	}()
}

// Stop terminates the background loop.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stop != nil {
		close(e.stop)
		e.stop = nil
	}
}

// Decommission drains and retires a provider: it leaves the allocation
// pool immediately, a repair pass re-replicates everything it holds,
// and only then is it marked dead (retired). The provider keeps serving
// reads throughout the drain — planned maintenance loses no redundancy
// window, unlike a crash.
func (e *Engine) Decommission(ctx context.Context, addr string) (Report, error) {
	// Refuse unknown addresses outright: the manager-side marks are
	// silent no-ops for unregistered providers, and "decommissioned"
	// must never be reported for a typo.
	infos, err := e.cfg.PM.List(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("repair: decommission %s: %w", addr, err)
	}
	known := false
	for _, in := range infos {
		if in.Addr == addr {
			known = true
		}
	}
	if !known {
		return Report{}, fmt.Errorf("repair: decommission %s: no such provider", addr)
	}
	if err := e.cfg.PM.Decommission(ctx, addr); err != nil {
		return Report{}, fmt.Errorf("repair: decommission %s: %w", addr, err)
	}
	rep, err := e.RunOnce(ctx)
	if err != nil {
		return rep, fmt.Errorf("repair: drain of %s incomplete: %w", addr, err)
	}
	// Verify nothing still depends on the draining provider before
	// retiring it: a block is safe once its live (non-draining) holders
	// alone meet the replication target. Under-replication *elsewhere*
	// (for example a block that already lost every replica — nothing a
	// drain could fix) must not wedge this provider in the draining
	// state forever.
	left, err := e.Scan(ctx)
	if err != nil {
		return rep, err
	}
	depends := 0
	for _, t := range left {
		for _, src := range t.Sources {
			if src == addr {
				depends++
				break
			}
		}
	}
	if depends > 0 {
		return rep, fmt.Errorf("repair: drain of %s incomplete: %d blocks still depend on it", addr, depends)
	}
	if err := e.cfg.PM.MarkDead(ctx, addr); err != nil {
		return rep, fmt.Errorf("repair: retire %s: %w", addr, err)
	}
	return rep, nil
}
