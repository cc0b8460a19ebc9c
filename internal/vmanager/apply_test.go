package vmanager

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/wal"
)

// runOps runs the operations ops encodes on a State journaled in dir,
// then closes its log, and returns it with the number of operations it
// refused. Each operation is three bytes: an opcode and two arguments.
// The sequence may name unknown blobs and versions, malformed ranges
// and placements, relocations of blocks no published write places or
// from addresses their slots do not hold, and close the log midway,
// after which every mutation is refused. Small segments make the log rotate and compact itself
// under the operations.
func runOps(t *testing.T, dir string, ops []byte) (*State, int) {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ids []blob.ID
	refused := 0
	for ; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0], ops[1], ops[2]
		id := blob.ID(1 << 20) // a blob nobody created
		if len(ids) > 0 && a%8 != 7 {
			id = ids[int(a)%min(len(ids), 4)] // most go to four blobs
		}
		// A placement that fits a write of size in id's blob (when b
		// is odd), none at all, or, for a blob nobody created, none.
		replicas := func(size int64) []string {
			h, _, err := s.LatestSince(id, 0, blob.NoVersion)
			if err != nil || b%2 == 0 || size <= 0 {
				return nil
			}
			var addrs []string
			for i := range blob.Blocks(size, h.Meta.BlockSize) * int64(h.Meta.Replication) {
				addrs = append(addrs, fmt.Sprintf("p%d", (i+int64(a))%5))
			}
			return addrs
		}
		// Versions at or near the blob's published one: committed, in
		// flight, or not assigned at all.
		pub, _, _ := latest(s, id)
		switch op % 10 {
		case 0:
			var m blob.Meta
			if m, err = s.CreateBlob(int64(b%3)*1024, 1+int(b/3)%2); err == nil {
				ids = append(ids, m.ID)
			}
		case 1, 2: // an append, on a base when b's high bits name one
			size := int64(b%5) * 512
			_, err = s.Assign(id, blob.KindAppend, 0, size, uint64(a), 0, blob.Version(b>>5), replicas(size)...)
		case 3:
			size := int64(b%4) * 1024
			_, err = s.Assign(id, blob.KindWrite, int64(a%4)*1024, size, uint64(a), 0, blob.NoVersion, replicas(size)...)
		case 4, 5:
			err = s.Commit(id, pub+1+blob.Version(b%2))
		case 6:
			err = s.Abort(id, pub+blob.Version(b%4))
		case 7:
			_, err = s.Prune(id, pub-blob.Version(b%2))
		case 8:
			err = s.log.Close()
		case 9:
			err = s.Relocate(id, moves(s, id, a, b))
		}
		if err != nil {
			refused++
		}
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	return s, refused
}

// moves is what a relocation op sends: one or two moves of a block of
// a write of id. b picks the write: mostly the newest published,
// placed and not aborted one at or below the version b names, the
// version b names itself when b%8 is 5, and a nonce no write has when
// it is 7. a picks the block, past the write when a%4 is 3. The move is
// from an address of the block's slot, unless b%8 is 6, to one of three
// addresses no write places, which may already be in the slot; a's
// bit 7 adds a second move, of the first one's new address.
func moves(s *State, id blob.ID, a, b byte) []Move {
	st := s.stripeFor(id)
	st.mu.Lock()
	var d blob.WriteDesc
	R := 1
	if bs := st.blobs[id]; bs != nil && bs.hist.Len() > 0 {
		R = bs.meta.Replication
		i := int(b) % bs.hist.Len()
		for ; b%8 != 5 && i > 0; i-- {
			if d := bs.hist.Descs[i]; blob.Version(i+1) <= bs.published && !d.Aborted && len(d.Replicas) > 0 {
				break
			}
		}
		d = bs.hist.Descs[i]
	}
	st.mu.Unlock()
	key := blob.BlockKey{Blob: id, Nonce: d.Nonce}
	if a%4 == 3 {
		key.Seq = uint32(blob.Blocks(d.Len, 1024))
	}
	if b%8 == 7 {
		key.Nonce = 1 << 40
	}
	from := "p9"
	if lo := int(key.Seq) * R; b%8 != 6 && lo+R <= len(d.Replicas) {
		from = d.Replicas[lo+int(a)%R]
	}
	mv := []Move{{Key: key, From: from, To: fmt.Sprintf("r%d", b%3)}}
	if a&0x80 != 0 {
		mv = append(mv, Move{Key: key, From: mv[0].To, To: fmt.Sprintf("r%d", (b+1)%3)})
	}
	return mv
}

// view is everything a State shows of its blobs: per blob, its head,
// its whole history (in-flight versions included) and its in-flight
// versions with their assign times.
func view(s *State) string {
	var b strings.Builder
	for _, id := range s.Blobs() {
		h, _, _ := s.LatestSince(id, 0, blob.NoVersion)
		fmt.Fprintf(&b, "blob %d: %+v\n", id, h)
		st := s.stripeFor(id)
		st.mu.Lock()
		for _, d := range st.blobs[id].hist.Descs {
			fmt.Fprintf(&b, "  %+v\n", d)
		}
		var inFlight []string
		for v, at := range st.blobs[id].assigned {
			inFlight = append(inFlight, fmt.Sprintf("v%d@%d", v, at.UnixNano()))
		}
		st.mu.Unlock()
		slices.Sort(inFlight)
		fmt.Fprintf(&b, "  in flight %v\n", inFlight)
	}
	fmt.Fprintf(&b, "expired %v\n", len(s.Expired(0)))
	return b.String()
}

// checkLiveEqualsRecovered runs ops and recovers a second State from
// the log they left: the two must show the same blobs.
func checkLiveEqualsRecovered(t *testing.T, ops []byte) (live *State, refused int) {
	t.Helper()
	dir := t.TempDir()
	live, refused = runOps(t, dir, ops)
	recovered := openState(t, dir)
	if got, want := view(recovered), view(live); got != want {
		t.Fatalf("recovered state differs from the live one:\nrecovered:\n%s\nlive:\n%s", got, want)
	}
	return live, refused
}

// randomOps is n random operations, then a close of the log, then n/4
// more, all refused.
func randomOps(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 1))
	ops := make([]byte, 0, 3*(n+n/4+1))
	op := func() byte { // any but the close
		if op := byte(r.IntN(9)); op != 8 {
			return op
		}
		return 9
	}
	for range n {
		ops = append(ops, op(), byte(r.Uint32()), byte(r.Uint32()))
	}
	ops = append(ops, 8, 0, 0)
	for range n / 4 {
		ops = append(ops, op(), byte(r.Uint32()), byte(r.Uint32()))
	}
	return ops
}

// relocated counts the block replicas s holds on an address only a
// relocation places.
func relocated(s *State) int {
	n := 0
	for i := range s.stripes {
		for _, bs := range s.stripes[i].blobs {
			for _, d := range bs.hist.Descs {
				for _, a := range d.Replicas {
					if strings.HasPrefix(a, "r") {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestLiveEqualsRecovered: whatever a sequence of operations did, its
// refused ones included, recovery from its log rebuilds the state the
// live manager shows.
func TestLiveEqualsRecovered(t *testing.T) {
	for seed := range uint64(4) {
		live, refused := checkLiveEqualsRecovered(t, randomOps(seed, 200))
		published := 0
		for _, id := range live.Blobs() {
			v, _, _ := latest(live, id)
			published += int(v)
		}
		// 50 refused after the close, the rest before it.
		if refused < 50+20 || len(live.Blobs()) < 5 || published < 5 || relocated(live) == 0 {
			t.Errorf("seed %d: %d refused operations, %d blobs, %d published versions, %d relocated replicas; the sequence tests too little",
				seed, refused, len(live.Blobs()), published, relocated(live))
		}
	}
}

func FuzzLiveEqualsRecovered(f *testing.F) {
	f.Add(randomOps(0, 20))
	f.Add([]byte{0, 0, 1, 1, 0, 2, 4, 0, 2, 8, 0, 0, 1, 0, 2})
	f.Add([]byte{0, 0, 3, 1, 0, 3, 4, 0, 0, 9, 0, 0, 9, 0x80, 1, 9, 1, 0x40})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkLiveEqualsRecovered(t, ops[:min(len(ops), 3*64)])
	})
}
