package namespace

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"blobseer/internal/fs"
	"blobseer/internal/wal"
)

// pathOf is one of the 39 paths of one to three components named a, b
// or c that b picks.
func pathOf(b byte) string {
	var p strings.Builder
	for i := range int(b%3) + 1 {
		p.WriteString("/" + []string{"a", "b", "c"}[int(b>>(2+2*i))%3])
	}
	return p.String()
}

// runOps runs the operations ops encodes on a State journaled in dir,
// then closes its log, and returns it with the number of operations it
// refused. Each operation is three bytes: an opcode and two arguments.
// The paths collide often, so creates find files and directories in
// their way, deletes find non-empty directories and renames find their
// destinations taken; the sequence may close the log midway, after
// which every mutation is refused. Small segments make the log rotate
// and compact itself under the operations.
func runOps(t *testing.T, dir string, ops []byte) (*State, int) {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cr := &seqCreator{}
	s, err := Recover(log, cr.create)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refused := 0
	for ; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0], ops[1], ops[2]
		switch op % 6 {
		case 0:
			calls := cr.calls
			_, err = s.CreateFile(ctx, pathOf(a), 4096, 1, b%2 == 1)
			if (errors.Is(err, fs.ErrExists) || errors.Is(err, fs.ErrIsDir) || errors.Is(err, fs.ErrNotDir)) && cr.calls != calls {
				t.Errorf("a create of %s refused with %v minted a blob", pathOf(a), err)
			}
		case 1:
			err = s.Mkdirs(pathOf(a))
		case 2:
			_, err = s.Delete(pathOf(a), b%2 == 1)
		case 3:
			err = s.Rename(pathOf(a), pathOf(b))
		case 4:
			s.Orphaned()
		case 5:
			err = s.CloseWAL()
		}
		if err != nil {
			refused++
		}
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	return s, refused
}

// view is everything a State shows: every path's entry (through
// StatEntry, and GetFile for a file), every directory's listing, and
// the orphan list, sorted (a recursive delete collects a directory's
// files in map order).
func view(t *testing.T, s *State) string {
	t.Helper()
	var b strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := s.List(dir)
		if err != nil {
			t.Fatalf("List(%q): %v", dir, err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", dir, ents)
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			st, err := s.StatEntry(p)
			id, ferr := s.GetFile(p)
			fmt.Fprintf(&b, "  %s: %+v %v / %d %v\n", p, st, err, id, ferr)
			if e.IsDir {
				walk(p)
			}
		}
	}
	walk("/")
	s.mu.Lock()
	orphans := slices.Clone(s.orphaned)
	s.mu.Unlock()
	slices.Sort(orphans)
	fmt.Fprintf(&b, "orphans %v\n", orphans)
	return b.String()
}

// checkLiveEqualsRecovered runs ops and recovers a second State from
// the log they left: the two must show the same tree and orphans.
func checkLiveEqualsRecovered(t *testing.T, ops []byte) (live *State, refused int) {
	t.Helper()
	dir := t.TempDir()
	live, refused = runOps(t, dir, ops)
	recovered := openNS(t, dir, &seqCreator{next: 1 << 20})
	if got, want := view(t, recovered), view(t, live); got != want {
		t.Fatalf("recovered state differs from the live one:\nrecovered:\n%s\nlive:\n%s", got, want)
	}
	return live, refused
}

// randomOps is n random operations, then a close of the log, then n/4
// more, all refused.
func randomOps(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 2))
	ops := make([]byte, 0, 3*(n+n/4+1))
	for range n {
		ops = append(ops, byte(r.IntN(5)), byte(r.Uint32()), byte(r.Uint32()))
	}
	ops = append(ops, 5, 0, 0)
	for range n / 4 {
		ops = append(ops, byte(r.IntN(5)), byte(r.Uint32()), byte(r.Uint32()))
	}
	return ops
}

// TestLiveEqualsRecovered: whatever a sequence of operations did, its
// refused ones included, recovery from its log rebuilds the tree and
// the orphan list the live namespace shows.
func TestLiveEqualsRecovered(t *testing.T) {
	for seed := range uint64(4) {
		live, refused := checkLiveEqualsRecovered(t, randomOps(seed, 200))
		ents, _ := live.List("/")
		// 50 refused after the close (less the drains), the rest before.
		if refused < 40+20 || len(ents) == 0 {
			t.Errorf("seed %d: %d refused operations, %d entries at the root; the sequence tests too little", seed, refused, len(ents))
		}
	}
}

func FuzzLiveEqualsRecovered(f *testing.F) {
	f.Add(randomOps(0, 20))
	f.Add([]byte{0, 0x11, 0, 1, 0x05, 0, 3, 0x11, 0x22, 2, 0x05, 1, 5, 0, 0, 0, 0x01, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkLiveEqualsRecovered(t, ops[:min(len(ops), 3*64)])
	})
}

// TestRefusedCreatesMintNoBlob: a create that finds a file without
// overwrite, a directory, or a file on its way is refused before the
// blob creator is called, so it leaves no blob behind that no file
// names.
func TestRefusedCreatesMintNoBlob(t *testing.T) {
	ctx, cr := context.Background(), &seqCreator{}
	s := openNS(t, t.TempDir(), cr)
	if _, err := s.CreateFile(ctx, "/d/f", 4096, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdirs("/e"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want error
	}{{"/d/f", fs.ErrExists}, {"/e", fs.ErrIsDir}, {"/", fs.ErrIsDir}, {"/d/f/g", fs.ErrNotDir}} {
		calls := cr.calls
		if _, err := s.CreateFile(ctx, tc.path, 4096, 1, false); !errors.Is(err, tc.want) {
			t.Errorf("create of %s = %v, want %v", tc.path, err, tc.want)
		}
		if cr.calls != calls {
			t.Errorf("the refused create of %s called the blob creator %d times", tc.path, cr.calls-calls)
		}
	}
}

// TestMutationAfterCloseWALFails: a mutation after CloseWAL fails, and
// the refused record changes nothing a reader can see.
func TestMutationAfterCloseWALFails(t *testing.T) {
	ctx := context.Background()
	s := openNS(t, t.TempDir(), &seqCreator{})
	if _, err := s.CreateFile(ctx, "/d/f", 4096, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Mkdirs("/e"); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	before := view(t, s)
	for name, refused := range map[string]func() error{
		"create":           func() error { _, err := s.CreateFile(ctx, "/x/g", 4096, 1, false); return err },
		"overwrite":        func() error { _, err := s.CreateFile(ctx, "/d/f", 4096, 1, true); return err },
		"mkdirs":           func() error { return s.Mkdirs("/m/n") },
		"delete":           func() error { _, err := s.Delete("/d/f", false); return err },
		"recursive delete": func() error { _, err := s.Delete("/d", true); return err },
		"rename":           func() error { return s.Rename("/d/f", "/z/f") },
	} {
		if refused() == nil {
			t.Errorf("%s after CloseWAL succeeded; it was never journaled", name)
		}
		if after := view(t, s); after != before {
			t.Errorf("a refused %s changed the namespace:\nbefore:\n%s\nafter:\n%s", name, before, after)
			before = after
		}
	}
}
