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
// and placements, and close the log midway, after which every mutation
// is refused. Small segments make the log rotate and compact itself
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
		switch op % 9 {
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
	for range n {
		ops = append(ops, byte(r.IntN(8)), byte(r.Uint32()), byte(r.Uint32()))
	}
	ops = append(ops, 8, 0, 0)
	for range n / 4 {
		ops = append(ops, byte(r.IntN(8)), byte(r.Uint32()), byte(r.Uint32()))
	}
	return ops
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
		if refused < 50+20 || len(live.Blobs()) < 5 || published < 5 {
			t.Errorf("seed %d: %d refused operations, %d blobs, %d published versions; the sequence tests too little",
				seed, refused, len(live.Blobs()), published)
		}
	}
}

func FuzzLiveEqualsRecovered(f *testing.F) {
	f.Add(randomOps(0, 20))
	f.Add([]byte{0, 0, 1, 1, 0, 2, 4, 0, 2, 8, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkLiveEqualsRecovered(t, ops[:min(len(ops), 3*64)])
	})
}
