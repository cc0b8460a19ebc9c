// Package repair implements BlobSeer's self-healing maintenance plane:
// a scanner that reads published versions' descriptors and diffs every
// block's replica set against live membership, and a bounded-concurrency
// executor that drives provider-to-provider re-replication until each
// block is back at its target replication level.
//
// A write's bytes and range never change after its ack; its placement
// may. A copy repair pushes takes the slot of a replica on a dead or
// draining provider in its write's placement, which the version manager
// amends (vmanager.State.Relocate), one call per blob per pass. Readers,
// the garbage collector and the next scan name the copy from the
// descriptors, as they name every replica, so there is no second
// placement map, and a pass needs no metadata provider.
package repair

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
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
	VM   *vmanager.Client
	PM   *pmanager.Client
	Prov *provider.Client
}

// Engine is the repair plane: Scan finds under-replicated blocks,
// RunOnce repairs them, Start runs the loop in the background. Safe
// for concurrent use, though runs are serialized internally — two
// overlapping repair passes would race on target selection and copy
// blocks twice.
type Engine struct {
	cfg Config
	reg *obs.Registry

	// runMu serializes RunOnce/Decommission. It is a one-slot channel,
	// not a sync.Mutex, because a pass waits on the network: a waiter
	// whose context ends leaves at once with its error instead of
	// queueing behind a holder that never returns.
	runMu chan struct{}

	mu   sync.Mutex
	stop chan struct{}
	last Report
}

// New returns an engine over cfg.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, reg: obs.NewRegistry(), runMu: make(chan struct{}, 1)}
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
	Holders []string // live providers of the block's placement
	Sources []string // usable copy sources (live, including draining providers)
	Missing int      // replicas to create
	// Replaced names the placement's addresses off live membership,
	// dead ones before draining ones: the copies take their slots, in
	// this order.
	Replaced []string
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
// the unique blocks their descriptors place, and diffs each block's
// replica set against live membership. It returns the repair work
// list; an empty list means the deployment is fully replicated.
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
// what the orphan audit diffs inventory against.
type scanState struct {
	tasks   []Task
	nBlocks int
	holders map[blob.BlockKey]map[string]bool // the placement's, live or not
	nonces  map[blob.ID]map[uint64]bool       // every published write's, per blob
}

// scanWith diffs the block inventory against the given membership
// snapshot.
func (e *Engine) scanWith(ctx context.Context, mem *membership) (*scanState, error) {
	blocks, nonces, err := e.collectBlocks(ctx)
	if err != nil {
		return nil, err
	}
	st := &scanState{nBlocks: len(blocks), holders: make(map[blob.BlockKey]map[string]bool, len(blocks)), nonces: nonces}
	for _, sb := range blocks {
		recorded := make(map[string]bool, len(sb.ref.Providers))
		var holders, sources, dead, draining []string
		for _, a := range sb.ref.Providers {
			recorded[a] = true
			switch {
			case mem.live[a]:
				holders = append(holders, a)
			case mem.source[a]:
				draining = append(draining, a)
			default:
				dead = append(dead, a)
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
			Key:      sb.ref.Key,
			Len:      sb.ref.Len,
			Holders:  holders,
			Sources:  sources,
			Missing:  missing,
			Replaced: append(dead, draining...),
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
// replicas, from the paged history; no tree node is read. An aborted
// write names none, and a block whose writer sent no placement is not
// known to live anywhere. The same walk returns the nonces of every
// published write of each blob.
func (e *Engine) collectBlocks(ctx context.Context) (map[blob.BlockKey]*scannedBlock, map[blob.ID]map[uint64]bool, error) {
	ids, err := e.cfg.VM.ListBlobs(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("repair: list blobs: %w", err)
	}
	out := make(map[blob.BlockKey]*scannedBlock)
	nonces := make(map[blob.ID]map[uint64]bool, len(ids))
	for _, id := range ids {
		var owners mdtree.Owners
		var refs []mdtree.BlockRef
		written := make(map[uint64]bool)
		h, err := e.cfg.VM.LatestSince(ctx, id, 0, blob.NoVersion, func(h vmanager.Head, descs []blob.WriteDesc) error {
			if err := owners.Extend(h.Meta, descs); err != nil {
				return err
			}
			for _, d := range descs {
				written[d.Nonce] = true
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
			return nil, nil, fmt.Errorf("repair: history of blob %d: %w", id, err)
		}
		nonces[id] = written
		for _, ref := range refs {
			if _, ok := out[ref.Key]; !ok {
				out[ref.Key] = &scannedBlock{ref: ref, want: h.Meta.Replication}
			}
		}
	}
	return out, nonces, nil
}

// RunOnce performs one scan-and-repair pass: every under-replicated
// block is pushed to freshly chosen live providers, each blob's copies
// then take the slots of the replicas they replace in one Relocate, and
// the pass's report is returned. Repair traffic is exactly the missing
// replicas — blocks already at their replication target move zero
// bytes. A pass waits for the one in progress, and returns ctx.Err() if
// its context ends first.
func (e *Engine) RunOnce(ctx context.Context) (Report, error) {
	select {
	case e.runMu <- struct{}{}:
		defer func() { <-e.runMu }()
	case <-ctx.Done():
		return Report{}, ctx.Err()
	}
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
	var mu sync.Mutex // guards rep counters, mem.load and the moves
	moves := make(map[blob.ID][]vmanager.Move)
	blocks := make(map[blob.ID]int) // the blocks each blob's moves copied
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
			targets := pickTargets(mem, t, min(t.Missing, len(t.Replaced)))
			mu.Unlock()
			if len(targets) == 0 {
				mu.Lock()
				rep.Failed++
				mu.Unlock()
				return
			}
			err := e.repairBlock(ctx, t, targets)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rep.Failed++
				// The copies were not made: return the load charge so
				// later passes don't see phantom placement.
				for _, a := range targets {
					mem.load[a]--
				}
				return
			}
			for i, to := range targets {
				moves[t.Key.Blob] = append(moves[t.Key.Blob], vmanager.Move{Key: t.Key, From: t.Replaced[i], To: to})
			}
			blocks[t.Key.Blob]++
		}(t)
	}
	wg.Wait()
	// A relocation the version manager refuses leaves its blob's copies
	// unrecorded: the next scan still counts those blocks
	// under-replicated and copies them again, which overwrites
	// idempotently.
	var errs []error
	for _, id := range slices.Sorted(maps.Keys(moves)) {
		if err := e.cfg.VM.Relocate(ctx, id, moves[id]); err != nil {
			rep.Failed += blocks[id]
			errs = append(errs, fmt.Errorf("repair: relocate blocks of blob %d: %w", id, err))
			continue
		}
		rep.Copies += len(moves[id])
	}
	rep.Elapsed = time.Since(start)
	e.mu.Lock()
	e.last = rep
	e.mu.Unlock()
	e.reg.Counter("passes").Inc()
	e.reg.Counter("re_replications").Add(int64(rep.Copies))
	if rep.Failed > 0 {
		errs = append([]error{fmt.Errorf("repair: %d of %d under-replicated blocks not repaired", rep.Failed, rep.UnderReplicated)}, errs...)
	}
	return rep, errors.Join(errs...)
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
// rotating sources and backing off between attempts. A chained push
// is all-or-nothing: on success every target holds a copy.
func (e *Engine) repairBlock(ctx context.Context, t Task, targets []string) error {
	backoff := retryBackoff
	var lastErr error
	for attempt := 0; attempt < repairAttempts; attempt++ {
		if attempt > 0 {
			e.reg.Counter("retries").Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		src := t.Sources[attempt%len(t.Sources)]
		if lastErr = e.cfg.Prov.Replicate(ctx, src, t.Key, targets); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("repair: block %s: %w", t.Key, lastErr)
}

// Status performs one metadata scan and returns both the repair work
// list (Scan's) and, per live provider, its orphans — what bsfsctl's
// providers command shows. The orphan audit diffs every live provider's
// block report (the mBlockReport RPC over store.Store.Keys) against the
// placements the scan derives. A held block counts as an orphan when
// nothing can ever read or reclaim it through this provider:
//
//   - its blob is unknown to the version manager;
//   - its write is published, but no still-readable version reads it:
//     the write was aborted (the best-effort GC missed this copy), or
//     pruned and hidden by later writes;
//   - the block is referenced, but this provider is not in its
//     placement (a stray copy — e.g. leaked by a repair push whose
//     relocation was refused, or left on a provider that came back
//     after a repair replaced it).
//
// Blocks whose nonce appears in no descriptor are skipped: a write in
// flight stores its blocks before version assignment, so they are
// indistinguishable from future data.
func (e *Engine) Status(ctx context.Context) ([]Task, map[string]int, error) {
	mem, err := e.membership(ctx)
	if err != nil {
		return nil, nil, err
	}
	st, err := e.scanWith(ctx, mem)
	if err != nil {
		return nil, nil, err
	}
	orphans, err := e.auditWith(ctx, mem, st)
	if err != nil {
		return nil, nil, err
	}
	return st.tasks, orphans, nil
}

// auditWith diffs each live provider's block report against a scan.
func (e *Engine) auditWith(ctx context.Context, mem *membership, st *scanState) (map[string]int, error) {
	out := make(map[string]int, len(mem.source))
	for addr := range mem.source {
		report, err := e.cfg.Prov.BlockReport(ctx, addr, "")
		if err != nil {
			return nil, fmt.Errorf("repair: block report from %s: %w", addr, err)
		}
		n := 0
		for _, k := range report {
			if set, ok := st.holders[k]; ok {
				if !set[addr] {
					n++ // stray copy of a live block
				}
				continue
			}
			if written, ok := st.nonces[k.Blob]; !ok || written[k.Nonce] {
				n++ // unknown blob, or a published write no readable version reads
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
