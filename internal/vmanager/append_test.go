package vmanager

import (
	"context"
	"errors"
	"slices"
	"testing"

	"blobseer/internal/blob"
)

// unalignedBlob makes a blob whose version 1 ends half a block past
// its end's block boundary, at blocks*B + B/2.
func unalignedBlob(t *testing.T, s *State, blocks int64) blob.Meta {
	t.Helper()
	m := newBlob(t, s)
	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, blocks*B+B/2, 1, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAppendOntoBase: an append that carries its base's tail lands at
// the tail's block boundary unless a version after the base wrote at
// or past it.
func TestAppendOntoBase(t *testing.T) {
	s := NewState(nil)

	// Nothing after the base: the tail's half block and 100 more bytes
	// land at the boundary.
	m := unalignedBlob(t, s, 1)
	a, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+100, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Off != B || a.Size != 3*B/2+100 {
		t.Errorf("merged append = %+v, want [%d, %d)", a, B, 3*B/2+100)
	}
	if d := a.Descs[len(a.Descs)-1]; d.Kind != blob.KindAppend || d.Off != B || d.Len != B/2+100 {
		t.Errorf("merged append logs as %+v, want an ordinary append", d)
	}
	// A later append moved the end: the same base is refused.
	if _, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+1, 3, 0, 1); !errors.Is(err, ErrEndMoved) {
		t.Errorf("append onto a base an append followed = %v, want ErrEndMoved", err)
	}

	// A same-size overwrite of the tail block leaves the end where it
	// was, but not the tail.
	m = unalignedBlob(t, s, 1)
	if _, err := s.AssignVersion(m.ID, blob.KindWrite, B, B/2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+1, 3, 0, 1); !errors.Is(err, ErrEndMoved) {
		t.Errorf("append onto a base whose tail was overwritten = %v, want ErrEndMoved", err)
	}
	if _, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+1, 4, 0, 2); err != nil {
		t.Errorf("append onto the overwrite = %v", err)
	}

	// A write below the boundary does not touch the tail.
	m = unalignedBlob(t, s, 2)
	if _, err := s.AssignVersion(m.ID, blob.KindWrite, 0, B, 2, 0); err != nil {
		t.Fatal(err)
	}
	if a, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+1, 3, 0, 1); err != nil || a.Off != 2*B {
		t.Errorf("append past a write below the tail = %+v, %v", a, err)
	}

	// A base the blob has not reached.
	if _, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+1, 4, 0, 99); !errors.Is(err, ErrBadVersion) {
		t.Errorf("append onto version 99 of 3 = %v, want ErrBadVersion", err)
	}
}

// TestEndMovedCrossesTheWire: the refusal reaches a remote client as
// its sentinel.
func TestEndMovedCrossesTheWire(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, err := c.CreateBlob(ctx, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if _, err := c.AssignVersion(ctx, m.ID, blob.KindWrite, 0, B/2+int64(i), uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Assign(ctx, m.ID, blob.KindAppend, 0, B, 3, 0, 1, nil); !errors.Is(err, ErrEndMoved) {
		t.Errorf("stale base over RPC = %v, want ErrEndMoved", err)
	}
	if a, err := c.Assign(ctx, m.ID, blob.KindAppend, 0, B, 3, 0, 2, nil); err != nil || a.Off != 0 || a.Size != B {
		t.Errorf("append onto the latest base over RPC = %+v, %v", a, err)
	}
}

// TestRecoverMergedAppend: a merged append's descriptor replays from
// the log like any other.
func TestRecoverMergedAppend(t *testing.T) {
	dir := t.TempDir()
	s := openState(t, dir)
	m, err := s.CreateBlob(B, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := assignCommit(t, s, m.ID, B+B/2)
	a, err := s.Assign(m.ID, blob.KindAppend, 0, B/2+7, 9, 0, v, "p0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(m.ID, a.Version); err != nil {
		t.Fatal(err)
	}
	_, want, _ := s.LatestSince(m.ID, 0, 0)
	s.CloseWAL()

	r := openState(t, dir)
	if _, got, _ := r.LatestSince(m.ID, 0, 0); !slices.EqualFunc(got, want, blob.WriteDesc.Equal) {
		t.Errorf("recovered history %+v, want %+v", got, want)
	}
	if pub, size, err := latest(r, m.ID); err != nil || pub != a.Version || size != B+B/2+7 {
		t.Errorf("recovered Latest = (%d, %d, %v), want (%d, %d)", pub, size, err, a.Version, B+B/2+7)
	}
}
