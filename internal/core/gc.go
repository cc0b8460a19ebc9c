package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/vmanager"
)

// GCStats summarizes one garbage-collection sweep.
type GCStats struct {
	From, To    blob.Version // versions discarded: [From, To)
	NodesFreed  int          // metadata tree nodes deleted
	BlocksFreed int          // data block replicas deleted
}

// GC discards every snapshot version below keep and reclaims the
// storage no kept version can reach (Section III-A1's version
// garbaging). A block a pruned version wrote is freed unless snapshot
// keep still reads it, by the block index every reader asks
// (mdtree.Owners); no later version reads a block keep does not. Tree
// nodes no kept version reaches go too (mdtree.DeadNodes). An aborted
// version frees nothing here: its writer freed its blocks.
//
// The prune point is advanced at the version manager first, so
// concurrent readers of kept versions are never affected; a reader
// pinned below keep loses its snapshot — the paper's stated contract
// for garbaged versions. A rerun finds nothing left to prune, so a
// failure does not end the sweep: the rest is still freed, and the
// failures come back joined with the stats.
func (c *Client) GC(ctx context.Context, id blob.ID, keep blob.Version) (GCStats, error) {
	m, err := c.Meta(ctx, id)
	if err != nil {
		return GCStats{}, err
	}
	// Liveness needs every descriptor up to keep, so keep may not pass
	// the published history (descriptors are never discarded).
	hist := &blob.History{}
	var owners mdtree.Owners
	h, err := c.vm.LatestSince(ctx, id, 0, blob.NoVersion, func(_ vmanager.Head, descs []blob.WriteDesc) error {
		if err := owners.Extend(m, descs); err != nil {
			return err
		}
		return hist.Extend(descs)
	})
	if err != nil {
		return GCStats{}, err
	}
	if keep > h.Published {
		return GCStats{}, fmt.Errorf("%w: keep %d, published %d", vmanager.ErrBadPrune, keep, h.Published)
	}

	from, err := c.vm.Prune(ctx, id, keep)
	if err != nil {
		return GCStats{}, err
	}
	st := GCStats{From: from, To: keep}
	var errs []error
	var live []mdtree.BlockRef
	for k := from; k < keep; k++ {
		d, ok := hist.Desc(k)
		if !ok {
			errs = append(errs, fmt.Errorf("core: gc: history missing version %d", k))
			continue
		}
		if !d.Aborted {
			live = owners.Blocks(live[:0], m, keep, d.Range())
			c.freeBlocks(ctx, m, d, live, &st)
		}
		dead, err := mdtree.DeadNodes(m, hist, k, keep)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: gc of version %d: %w", k, err))
			continue
		}
		for _, n := range dead {
			if err := c.meta.Delete(ctx, n); err != nil {
				errs = append(errs, fmt.Errorf("core: gc: delete node %s: %w", n.Key(), err))
				continue
			}
			st.NodesFreed++
		}
	}
	return st, errors.Join(errs...)
}

// freeBlocks deletes the blocks version d stored that live, the blocks
// snapshot keep reads over d's range in block order, does not name.
// d's placement, as repairs amended it, says where each lives, so no
// leaf is read; a version whose writer sent no placement frees nothing.
func (c *Client) freeBlocks(ctx context.Context, m blob.Meta, d blob.WriteDesc, live []mdtree.BlockRef, st *GCStats) {
	if len(d.Replicas) == 0 {
		return
	}
	// d's blocks still read come in seq order among the others.
	live = slices.DeleteFunc(live, func(ref mdtree.BlockRef) bool { return ref.Key.Nonce != d.Nonce })
	r := int64(m.Replication)
	for seq := range blob.Blocks(d.Len, m.BlockSize) {
		key := blob.BlockKey{Blob: m.ID, Nonce: d.Nonce, Seq: uint32(seq)}
		if len(live) > 0 && live[0].Key == key {
			live = live[1:]
			continue
		}
		for _, addr := range d.Replicas[seq*r : (seq+1)*r] {
			if err := c.prov.Delete(ctx, addr, key); err == nil {
				st.BlocksFreed++
			}
		}
	}
}
