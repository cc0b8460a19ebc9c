package core

import (
	"context"
	"fmt"

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
// garbaging). The sweep is differential-aware: a block written by a
// pruned version survives if any kept snapshot still reads it through
// a shared subtree; only nodes and blocks hidden by later writes (or
// bridge nodes reachable solely from pruned roots) are deleted.
//
// The prune point is advanced at the version manager first, so
// concurrent readers of kept versions are never affected; a reader
// pinned below keep loses its snapshot — the paper's stated contract
// for garbaged versions.
func (c *Client) GC(ctx context.Context, id blob.ID, keep blob.Version) (GCStats, error) {
	m, err := c.Meta(ctx, id)
	if err != nil {
		return GCStats{}, err
	}
	// Liveness needs every descriptor up to keep, so keep may not pass
	// the published history (descriptors are never discarded).
	hist := &blob.History{}
	h, err := c.vm.LatestSince(ctx, id, 0, blob.NoVersion, func(_ vmanager.Head, descs []blob.WriteDesc) error {
		for _, d := range descs {
			if err := d.CheckPlacement(m); err != nil {
				return err
			}
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
	for k := from; k < keep; k++ {
		d, ok := hist.Desc(k)
		if !ok {
			return st, fmt.Errorf("core: gc: history missing version %d", k)
		}
		dead, err := mdtree.DeadNodes(m, hist, k, keep)
		if err != nil {
			return st, fmt.Errorf("core: gc of version %d: %w", k, err)
		}
		if !d.Aborted {
			c.freeBlocks(ctx, m, d, dead, &st)
		}
		for _, dn := range dead {
			if err := c.meta.Delete(ctx, dn.ID); err != nil {
				return st, fmt.Errorf("core: gc: delete node %s: %w", dn.ID.Key(), err)
			}
			st.NodesFreed++
		}
	}
	return st, nil
}

// freeBlocks deletes the data blocks the dead leaves among dead name,
// all version d's: a leaf's block is d's block at the leaf's offset,
// and d's placement says where it lives, so no leaf is read. A version
// whose writer sent no placement frees nothing.
func (c *Client) freeBlocks(ctx context.Context, m blob.Meta, d blob.WriteDesc, dead []mdtree.DeadNode, st *GCStats) {
	for _, dn := range dead {
		if !dn.Leaf || len(d.Replicas) == 0 {
			continue
		}
		seq, r := (dn.ID.Off-d.Off)/m.BlockSize, int64(m.Replication)
		key := blob.BlockKey{Blob: m.ID, Nonce: d.Nonce, Seq: uint32(seq)}
		for _, addr := range d.Replicas[seq*r : (seq+1)*r] {
			if err := c.prov.Delete(ctx, addr, key); err == nil {
				st.BlocksFreed++
			}
		}
		// Repair copies and their overlay record go with the block: a
		// dangling relocation entry would point readers at storage the
		// providers already reclaimed.
		if c.overlay != nil {
			extras, err := c.overlay.Get(ctx, key)
			if err == nil {
				for _, addr := range extras {
					if err := c.prov.Delete(ctx, addr, key); err == nil {
						st.BlocksFreed++
					}
				}
				_ = c.overlay.Remove(ctx, key)
			}
		}
	}
}
