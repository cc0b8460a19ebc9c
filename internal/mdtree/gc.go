package mdtree

import (
	"fmt"

	"blobseer/internal/blob"
)

// Garbage collection of old snapshot versions (Section III-A1: past
// versions stay accessible "as long as they have not been garbaged for
// the sake of storage space").
//
// Because trees share subtrees, pruning version k must keep every node
// and data block that any kept version (>= keep) can still reach. The
// reachability rule falls out of the deterministic borrow rule ("a
// child covering range R borrows the newest version w <= v whose write
// intersects R"):
//
//   - A node (k, R) that intersects k's own write range is reachable
//     from kept version v >= k exactly when no version w in (k, v]
//     wrote anything intersecting R. Since any such w hides (k, R)
//     from *all* later versions too, the node is dead iff some
//     w in (k, keep] intersects R.
//   - A bridge node (k, R) — materialized only because the root span
//     grew past what the borrowed subtree covers — never intersects
//     k's write, and child references always name intersecting
//     versions, so bridges are reachable only through k's own root:
//     dead as soon as k is pruned.
//
// Dead leaves carry the block references whose payloads can be removed
// from the data providers; DeadNodes reports them so the caller can
// free data before deleting the metadata.

// DeadNode is one metadata node that no kept version can reach.
type DeadNode struct {
	ID   NodeID
	Leaf bool
}

// DeadNodes returns the nodes materialized by pruned version k that
// become unreachable once every version < keep is discarded. The
// history must contain descriptors for all versions up to at least
// keep. k must be < keep.
func DeadNodes(meta blob.Meta, h *blob.History, k, keep blob.Version) ([]DeadNode, error) {
	if k >= keep {
		return nil, fmt.Errorf("mdtree: version %d is kept (keep=%d)", k, keep)
	}
	d, ok := h.Desc(k)
	if !ok {
		return nil, fmt.Errorf("mdtree: history has no descriptor for version %d", k)
	}
	ids, err := PlanNodes(meta, h, k)
	if err != nil {
		return nil, err
	}
	write := d.Range()
	var out []DeadNode
	for _, id := range ids {
		r := id.Range()
		dead := !write.Intersects(r) // bridge: only k's own tree reaches it
		if !dead {
			// Hidden from every kept version by a later write?
			if w := h.LatestIntersecting(r, keep); w > k {
				dead = true
			}
		}
		if dead {
			out = append(out, DeadNode{ID: id, Leaf: r.Len == meta.BlockSize})
		}
	}
	return out, nil
}
