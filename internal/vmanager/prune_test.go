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
	if pb, _ := s.PrunedBelow(id); pb != 3 {
		t.Errorf("PrunedBelow = %d, want 3", pb)
	}

	// Monotone: re-pruning at or below the point is a no-op.
	if from, err = s.Prune(id, 3); err != nil || from != 3 {
		t.Errorf("same-point prune: from=%d err=%v", from, err)
	}
	if from, err = s.Prune(id, 2); err != nil || from != 2 {
		t.Errorf("backwards prune: from=%d err=%v", from, err)
	}
	if pb, _ := s.PrunedBelow(id); pb != 3 {
		t.Errorf("prune point moved backwards to %d", pb)
	}

	// Forward again.
	if from, err = s.Prune(id, 5); err != nil || from != 3 {
		t.Errorf("forward prune: from=%d err=%v", from, err)
	}
}

func TestPruneGatesVersionInfo(t *testing.T) {
	s, id := pruneState(t, 4)
	if _, err := s.Prune(id, 3); err != nil {
		t.Fatal(err)
	}
	for v := blob.Version(1); v <= 2; v++ {
		if _, err := s.VersionInfo(id, v); !errors.Is(err, ErrPruned) {
			t.Errorf("VersionInfo(v%d) = %v, want ErrPruned", v, err)
		}
	}
	for v := blob.Version(3); v <= 4; v++ {
		if _, err := s.VersionInfo(id, v); err != nil {
			t.Errorf("VersionInfo(v%d) = %v, want kept", v, err)
		}
	}
	// Latest and the history are unaffected: descriptors are never
	// dropped.
	v, size, descs, err := s.LatestSince(id, 0)
	if err != nil || v != 4 || size != 4*1024 || len(descs) != 4 {
		t.Errorf("LatestSince = (%d, %d, %d descriptors, %v), want 4 of them", v, size, len(descs), err)
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
	if v, _, _ := s.Latest(id); v != 4 {
		t.Errorf("write after prune: latest %d, want 4", v)
	}
}
