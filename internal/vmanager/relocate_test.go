package vmanager

import (
	"context"
	"errors"
	"slices"
	"testing"

	"blobseer/internal/blob"
)

// TestRelocateAmendsOnlyPublishedPlacements: a relocation rewrites one
// replica slot of a published write, on a copy a page handed out before
// does not see, and answers Replicas from then on. Each refused batch —
// an unknown nonce, an unpublished or aborted write, a seq past the
// write, a From the slot does not hold, a To it already holds — changes
// nothing, even where its other moves were valid; a retried batch is
// accepted and changes nothing more.
func TestRelocateAmendsOnlyPublishedPlacements(t *testing.T) {
	c, svcs := startShardedVM(t, 1)
	s, ctx := svcs[0].State(), context.Background()
	m, err := c.CreateBlob(ctx, B, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := func(nonce uint64, replicas ...string) blob.Version {
		a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, int64(len(replicas)/2)*B, nonce, 0, replicas...)
		if err != nil {
			t.Fatal(err)
		}
		return a.Version
	}
	v1 := assign(1, "p0", "p1", "p1", "p2")
	if err := c.Commit(ctx, m.ID, v1); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(ctx, m.ID, assign(2, "p2", "p0")); err != nil {
		t.Fatal(err)
	}
	assign(3, "p0", "p1") // in flight
	_, before, _ := s.LatestSince(m.ID, 0, blob.NoVersion)

	key := func(nonce uint64, seq uint32) blob.BlockKey { return blob.BlockKey{Blob: m.ID, Nonce: nonce, Seq: seq} }
	good := Move{Key: key(1, 1), From: "p1", To: "p3"}
	for _, tc := range []struct {
		name string
		bad  Move
		want error
	}{
		{"unknown nonce", Move{Key: key(9, 0), From: "p0", To: "p3"}, ErrBadVersion},
		{"unpublished write", Move{Key: key(3, 0), From: "p0", To: "p3"}, ErrBadVersion},
		{"aborted write", Move{Key: key(2, 0), From: "p2", To: "p3"}, ErrAborted},
		{"seq past the write", Move{Key: key(1, 2), From: "p0", To: "p3"}, ErrBadPlacement},
		{"From not in the slot", Move{Key: key(1, 0), From: "p2", To: "p3"}, ErrBadPlacement},
		{"To already in the slot", Move{Key: key(1, 0), From: "p0", To: "p1"}, ErrBadPlacement},
	} {
		if err := c.Relocate(ctx, m.ID, []Move{good, tc.bad}); !errors.Is(err, tc.want) {
			t.Errorf("%s: Relocate = %v, want %v", tc.name, err, tc.want)
		}
		if got, _ := c.Replicas(ctx, good.Key); !slices.Equal(got, []string{"p1", "p2"}) {
			t.Fatalf("%s: a refused batch moved block 1 to %v", tc.name, got)
		}
	}

	moves := []Move{good, {Key: key(1, 1), From: "p2", To: "p4"}}
	for range 2 { // the second call is a retry: already applied
		if err := c.Relocate(ctx, m.ID, moves); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.Replicas(ctx, good.Key); err != nil || !slices.Equal(got, []string{"p3", "p4"}) {
		t.Errorf("block 1 after its relocation is on %v, %v; want [p3 p4]", got, err)
	}
	_, after, _ := s.LatestSince(m.ID, 0, blob.NoVersion)
	if want := []string{"p0", "p1", "p3", "p4"}; !slices.Equal(after[0].Replicas, want) {
		t.Errorf("version 1's placement after the relocation = %v, want %v", after[0].Replicas, want)
	}
	if want := []string{"p0", "p1", "p1", "p2"}; !slices.Equal(before[0].Replicas, want) {
		t.Errorf("a page handed out before the relocation changed to %v, want %v", before[0].Replicas, want)
	}
	if _, err := c.Replicas(ctx, key(3, 0)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("Replicas of an unpublished write = %v, want %v", err, ErrBadVersion)
	}
}
