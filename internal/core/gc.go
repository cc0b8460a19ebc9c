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
			if err := c.freeBlocks(ctx, dead, &st); err != nil {
				return st, fmt.Errorf("core: gc of version %d: %w", k, err)
			}
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

// freeBlocks deletes the data blocks the dead leaves among dead name. It
// runs before any of those nodes is deleted, because a leaf is the only
// record of where its payload lives: the leaves come in one batch, and a
// batch that fails fails the sweep with every leaf still stored. A leaf
// absent from the batch was deleted by an earlier sweep, with its block.
func (c *Client) freeBlocks(ctx context.Context, dead []mdtree.DeadNode, st *GCStats) error {
	var leaves []mdtree.NodeID
	for _, dn := range dead {
		if dn.Leaf {
			leaves = append(leaves, dn.ID)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	nodes, err := c.meta.GetBatch(ctx, leaves)
	if err != nil {
		return fmt.Errorf("read dead leaves: %w", err)
	}
	for _, id := range leaves {
		node, ok := nodes[id]
		if !ok {
			continue
		}
		for _, addr := range node.Block.Providers {
			if err := c.prov.Delete(ctx, addr, node.Block.Key); err == nil {
				st.BlocksFreed++
			}
		}
		// Repair copies and their overlay record go with the block: a
		// dangling relocation entry would point readers at storage the
		// providers already reclaimed.
		if c.overlay != nil {
			extras, err := c.overlay.Get(ctx, node.Block.Key)
			if err == nil {
				for _, addr := range extras {
					if err := c.prov.Delete(ctx, addr, node.Block.Key); err == nil {
						st.BlocksFreed++
					}
				}
				_ = c.overlay.Remove(ctx, node.Block.Key)
			}
		}
	}
	return nil
}
