package vmanager

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
	"blobseer/internal/wire"
)

// TestAssignChecksPlacement: an assign's placement is R non-empty
// addresses per block of the write, or none at all; anything else is
// refused with ErrBadPlacement — by the state and across the wire —
// and assigns no version.
func TestAssignChecksPlacement(t *testing.T) {
	s := NewState(nil)
	m, err := s.CreateBlob(B, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"p0"},                   // one address for a block at replication 2
		{"p0", "p1", "p2"},       // three
		{"p0", ""},               // an empty address
		{"p0", "p1", "p2", "p3"}, // two blocks' worth for one
	} {
		if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 1, 0, bad...); !errors.Is(err, ErrBadPlacement) {
			t.Errorf("placement %q for one block at replication 2: %v, want ErrBadPlacement", bad, err)
		}
	}
	if _, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 2*B, 1, 0, "p0", "p1"); !errors.Is(err, ErrBadPlacement) {
		t.Errorf("one block's placement for a 2-block write: %v, want ErrBadPlacement", err)
	}
	if _, descs, _ := s.LatestSince(m.ID, 0, 0); len(descs) != 0 {
		t.Fatalf("refused assigns left %d versions", len(descs))
	}
	if a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, 2*B, 1, 0, "p0", "p1", "p1", "p2"); err != nil || a.Version != 1 {
		t.Fatalf("a fitting placement: %+v, %v", a, err)
	}
	if a, err := s.AssignVersion(m.ID, blob.KindAppend, 0, B, 2, 0); err != nil || a.Version != 2 {
		t.Fatalf("no placement: %+v, %v", a, err)
	}

	c := startVM(t)
	ctx := context.Background()
	cm, err := c.CreateBlob(ctx, B, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AssignVersion(ctx, cm.ID, blob.KindAppend, 0, B, 1, 0, "p0"); !errors.Is(err, ErrBadPlacement) {
		t.Errorf("across the wire, a short placement: %v, want ErrBadPlacement", err)
	}
	// A request whose placement the bytes cannot hold fails; so does an
	// empty address.
	for _, tail := range [][]byte{{0, 0, 0, 9}, {0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}} {
		err := c.call(ctx, 0, mAssignVersion, 64, func(b *wire.Buffer) {
			b.U64(uint64(cm.ID))
			b.U8(uint8(blob.KindAppend))
			b.I64(0)
			b.I64(B)
			b.U64(1)
			b.U64(0)
			b.Extend(len(tail))
			copy(b.Bytes()[b.Len()-len(tail):], tail)
		}, nil)
		if err == nil {
			t.Errorf("an assign with placement bytes %v was accepted", tail)
		}
	}
	if a, err := c.AssignVersion(ctx, cm.ID, blob.KindAppend, 0, B, 1, 0, "p0", "p1"); err != nil || a.Version != 1 {
		t.Fatalf("across the wire, a fitting placement: %+v, %v", a, err)
	}
}

// TestPlacementTravelsSharedAndCompact: a placement comes back in the
// assignment and in every page as it went in, primary first; the
// descriptors of one-block writes to the same replicas share one slice
// on both ends; and a one-block descriptor at replication 3 takes 58
// bytes of a page besides the address table, under twice the 42 a
// descriptor took before it carried a placement.
func TestPlacementTravelsSharedAndCompact(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, err := c.CreateBlob(ctx, B, 3)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]string{{"p2", "p0", "p1"}, {"p1", "p2", "p0"}}
	var since blob.Version
	for i := range 100 {
		a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, uint64(i+1), since, sets[i%2]...)
		if err == nil {
			err = c.Commit(ctx, m.ID, a.Version)
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Descs[len(a.Descs)-1]; d.Version != a.Version || !slices.Equal(d.Replicas, sets[i%2]) {
			t.Fatalf("assignment of v%d carries %+v, want placement %q", a.Version, d, sets[i%2])
		}
		since = a.Version
	}
	descs, _, err := readHistory(ctx, c, m.ID, 0)
	if err != nil || len(descs) != 100 {
		t.Fatalf("history: %d descriptors, %v", len(descs), err)
	}
	for i, d := range descs {
		if !slices.Equal(d.Replicas, sets[i%2]) {
			t.Fatalf("v%d reads back with placement %q, want %q", d.Version, d.Replicas, sets[i%2])
		}
		if other := descs[i%2]; &d.Replicas[0] != &other.Replicas[0] {
			t.Fatalf("v%d's placement is a copy of its own, not v%d's shared one", d.Version, other.Version)
		}
	}

	b := wire.NewBuffer(8 << 10)
	encodeDescs(b, descs)
	table := 4 + 3*(4+len("p0"))
	if per := (b.Len() - table - 4) / len(descs); per != 58 || per > 2*42 {
		t.Errorf("a one-block descriptor at replication 3 takes %d bytes of a page, want 58", per)
	}
}

// TestAssignAllocatesNothingNew: in steady state, an assign that
// carries a one-block write's placement allocates, client and server
// together, no more than one without.
func TestAssignAllocatesNothingNew(t *testing.T) {
	c := startVM(t)
	ctx := context.Background()
	m, err := c.CreateBlob(ctx, B, 3)
	if err != nil {
		t.Fatal(err)
	}
	var since blob.Version
	assign := func(replicas ...string) func() {
		return func() {
			a, err := c.AssignVersion(ctx, m.ID, blob.KindAppend, 0, B, 1, since, replicas...)
			if err != nil {
				t.Fatal(err)
			}
			since = a.Version
		}
	}
	placed, bare := assign("p0", "p1", "p2"), assign()
	for range 100 {
		placed()
		bare()
	}
	with, without := testing.AllocsPerRun(500, placed), testing.AllocsPerRun(500, bare)
	t.Logf("allocations per assign: %.2f with a placement, %.2f without", with, without)
	if with > without+0.5 {
		t.Errorf("an assign with a placement allocates %.1f times, one without %.1f", with, without)
	}
}

// TestRecoveryRefusesALogWithoutPlacements: a log written before
// descriptors carried their placement — an old assign record, or a
// snapshot without the placement mark — fails recovery with an error
// that says so, rather than being read as something else.
func TestRecoveryRefusesALogWithoutPlacements(t *testing.T) {
	old := wire.NewBuffer(64) // recAssignUnplaced | id | 42-byte descriptor | assign time
	old.U8(recAssignUnplaced)
	old.U64(1)
	old.U64(1)    // version
	old.I64(0)    // off
	old.I64(4096) // len
	old.I64(4096) // size after
	old.U8(uint8(blob.KindAppend))
	old.U64(7)      // nonce
	old.Bool(false) // aborted
	old.I64(time.Now().UnixNano())
	oldSnap := wire.NewBuffer(64) // u64 nextID | u32 nblobs
	oldSnap.U64(2)
	oldSnap.U32(0)

	for name, write := range map[string]func(*wal.Log) error{
		"an old assign record": func(l *wal.Log) error {
			if err := l.AppendSync(encodeCreate(blob.Meta{ID: 1, BlockSize: 4096, Replication: 1})); err != nil {
				return err
			}
			return l.AppendSync(old.Bytes())
		},
		"an old snapshot": func(l *wal.Log) error { return l.SaveSnapshot(oldSnap.Bytes()) },
	} {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := write(l); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if l, err = wal.Open(dir, wal.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(l, nil); !errors.Is(err, errNoPlacement) {
			t.Errorf("%s recovered with %v, want errNoPlacement", name, err)
		}
		l.Close()
	}
}
