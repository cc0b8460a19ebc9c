package vmanager

import (
	"errors"
	"testing"

	"blobseer/internal/blob"
)

func pruneState(t *testing.T, versions int) (*State, blob.ID) {
	t.Helper()
	s := NewState(nil)
	m, err := s.CreateBlob(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < versions; i++ {
		a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 1024, uint64(i)+1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(m.ID, a.Version); err != nil {
			t.Fatal(err)
		}
	}
	return s, m.ID
}

func TestPruneBasics(t *testing.T) {
	s, id := pruneState(t, 5)

	if _, err := s.Prune(id, 6); !errors.Is(err, ErrBadPrune) {
		t.Fatalf("prune beyond published: %v", err)
	}
	if _, err := s.Prune(99, 1); !errors.Is(err, ErrUnknownBlob) {
		t.Fatalf("prune unknown blob: %v", err)
	}

	from, err := s.Prune(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 {
		t.Errorf("first prune from = %d, want 1", from)
	}
	if pb := oldest(t, s, id); pb != 3 {
		t.Errorf("prune point = %d, want 3", pb)
	}

	// Monotone: re-pruning at or below the point is a no-op.
	if from, err = s.Prune(id, 3); err != nil || from != 3 {
		t.Errorf("same-point prune: from=%d err=%v", from, err)
	}
	if from, err = s.Prune(id, 2); err != nil || from != 2 {
		t.Errorf("backwards prune: from=%d err=%v", from, err)
	}
	if pb := oldest(t, s, id); pb != 3 {
		t.Errorf("prune point moved backwards to %d", pb)
	}

	// Forward again.
	if from, err = s.Prune(id, 5); err != nil || from != 3 {
		t.Errorf("forward prune: from=%d err=%v", from, err)
	}
}

// oldest returns the prune point the head of id reports.
func oldest(t *testing.T, s *State, id blob.ID) blob.Version {
	t.Helper()
	h, _, err := s.LatestSince(id, ^blob.Version(0), blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	return h.Oldest
}

// TestHeadCarriesPrunePoint: the head names the oldest kept version, 1
// before any prune, and pruning leaves the rest of the head and the
// history as they were: descriptors are never dropped.
func TestHeadCarriesPrunePoint(t *testing.T) {
	s, id := pruneState(t, 4)
	if pb := oldest(t, s, id); pb != 1 {
		t.Errorf("prune point of a blob never pruned = %d, want 1", pb)
	}
	if _, err := s.Prune(id, 3); err != nil {
		t.Fatal(err)
	}
	h, descs, err := s.LatestSince(id, 0, 2)
	if err != nil || h.Oldest != 3 || h.Published != 4 || h.Size != 2*1024 || len(descs) != 4 {
		t.Errorf("LatestSince = (%+v, %d descriptors, %v), want oldest 3, 4 descriptors", h, len(descs), err)
	}
}

func TestPruneDoesNotBlockNewWrites(t *testing.T) {
	s, id := pruneState(t, 3)
	if _, err := s.Prune(id, 3); err != nil {
		t.Fatal(err)
	}
	a, err := s.AssignVersion(id, blob.KindAppend, 0, 1024, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id, a.Version); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := latest(s, id); v != 4 {
		t.Errorf("write after prune: latest %d, want 4", v)
	}
}
