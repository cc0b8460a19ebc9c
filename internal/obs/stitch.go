package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Node is one span in a stitched causal tree.
type Node struct {
	Span     Span
	Children []*Node
	// Orphan marks a span whose parent was not among the collected
	// spans (evicted from a ring, or its service unreachable); it is
	// promoted to a root so the data still renders.
	Orphan bool
}

// Stitch reassembles spans (typically polled from several /trace
// endpoints) into a forest of causal trees: children are attached to
// the span whose ID they name as parent, duplicates (the same span
// seen via two endpoints) are dropped, and spans whose parent is
// missing surface as orphan roots rather than disappearing. Roots and
// children are ordered by start time.
func Stitch(spans []Span) []*Node {
	byID := make(map[SpanID]*Node, len(spans))
	order := make([]*Node, 0, len(spans))
	for _, sp := range spans {
		if sp.ID == 0 {
			continue
		}
		if _, dup := byID[sp.ID]; dup {
			continue
		}
		n := &Node{Span: sp}
		byID[sp.ID] = n
		order = append(order, n)
	}
	var roots []*Node
	for _, n := range order {
		if n.Span.Parent == 0 {
			roots = append(roots, n)
			continue
		}
		if p, ok := byID[n.Span.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
			continue
		}
		n.Orphan = true
		roots = append(roots, n)
	}
	byStart := func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Span.Start.Before(ns[j].Span.Start) })
	}
	byStart(roots)
	for _, n := range order {
		byStart(n.Children)
	}
	return roots
}

// FormatTree renders a stitched forest as the indented causal tree
// bsfsctl prints: one line per span with service.op, the per-hop
// duration, and any error.
func FormatTree(roots []*Node) string {
	var b strings.Builder
	for _, r := range roots {
		formatNode(&b, r, 0)
	}
	return b.String()
}

func formatNode(b *strings.Builder, n *Node, depth int) {
	label := strings.Repeat("  ", depth) + n.Span.Service + "." + n.Span.Op
	if n.Orphan {
		label += " (orphan)"
	}
	fmt.Fprintf(b, "%-44s %10s", label, fmtDur(n.Span.Duration))
	if n.Span.Err != "" {
		fmt.Fprintf(b, "  ERR(%d) %s", n.Span.Code, n.Span.Err)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		formatNode(b, c, depth+1)
	}
}

// fmtDur renders a duration at ~3 significant figures so columns stay
// readable across micro- and millisecond hops.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
