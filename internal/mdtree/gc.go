package mdtree

import (
	"fmt"

	"blobseer/internal/blob"
)

// Garbage collection of old snapshot versions (Section III-A1: past
// versions stay accessible "as long as they have not been garbaged for
// the sake of storage space").
//
// Which data blocks die is the block index's answer (Owners): a pruned
// version's block is dead unless the oldest kept snapshot still reads
// it. What is left here is the tree writers still store: because trees
// share subtrees, pruning version k must keep every node any kept
// version (>= keep) can still reach. The reachability rule falls out of
// the deterministic borrow rule ("a child covering range R borrows the
// newest version w <= v whose write intersects R", aborted or not):
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

// DeadNodes returns the nodes materialized by pruned version k that
// become unreachable once every version < keep is discarded. The
// history must contain descriptors for all versions up to at least
// keep. k must be < keep.
func DeadNodes(meta blob.Meta, h *blob.History, k, keep blob.Version) ([]NodeID, error) {
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
	dead := ids[:0]
	for _, id := range ids {
		// A bridge is reachable only from k's own root; any other node
		// is hidden from every kept version by a later write over it.
		if r := id.Range(); !write.Intersects(r) || h.LatestIntersecting(r, keep) > k {
			dead = append(dead, id)
		}
	}
	return dead, nil
}
