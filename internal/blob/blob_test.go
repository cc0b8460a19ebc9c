package blob

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blobseer/internal/util"
)

func TestRangeBasics(t *testing.T) {
	r := Range{Off: 10, Len: 20}
	if r.End() != 30 {
		t.Errorf("End = %d", r.End())
	}
	if r.IsEmpty() {
		t.Error("non-empty range reported empty")
	}
	if !(Range{Off: 5, Len: 0}).IsEmpty() {
		t.Error("empty range not reported empty")
	}
}

func TestRangeIntersects(t *testing.T) {
	cases := []struct {
		a, b Range
		want bool
	}{
		{Range{0, 10}, Range{5, 10}, true},
		{Range{0, 10}, Range{10, 10}, false}, // touching, half-open
		{Range{0, 10}, Range{9, 1}, true},
		{Range{5, 5}, Range{0, 5}, false},
		{Range{0, 0}, Range{0, 10}, false}, // empty never intersects
		{Range{0, 100}, Range{40, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("intersects not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestRangeIntersection(t *testing.T) {
	got := (Range{0, 10}).Intersection(Range{5, 10})
	if got.Off != 5 || got.Len != 5 {
		t.Errorf("Intersection = %v", got)
	}
	if !(Range{0, 5}).Intersection(Range{7, 2}).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
}

func TestRangeContains(t *testing.T) {
	if !(Range{0, 10}).Contains(Range{2, 3}) {
		t.Error("containment failed")
	}
	if (Range{0, 10}).Contains(Range{8, 3}) {
		t.Error("overflow containment passed")
	}
}

func TestMetaValidate(t *testing.T) {
	if err := (Meta{BlockSize: 64 * util.MB, Replication: 1}).Validate(); err != nil {
		t.Errorf("valid meta rejected: %v", err)
	}
	if err := (Meta{BlockSize: 0, Replication: 1}).Validate(); err == nil {
		t.Error("zero block size accepted")
	}
	if err := (Meta{BlockSize: 1, Replication: 0}).Validate(); err == nil {
		t.Error("zero replication accepted")
	}
}

func TestHistoryAppendAndLookup(t *testing.T) {
	h := &History{}
	if h.Latest() != NoVersion {
		t.Error("fresh history has a version")
	}
	if h.SizeAt(NoVersion) != 0 {
		t.Error("empty snapshot size != 0")
	}
	if err := h.Append(WriteDesc{Version: 1, Off: 0, Len: 100, SizeAfter: 100}); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(WriteDesc{Version: 3}); err == nil {
		t.Error("gap append accepted")
	}
	if err := h.Append(WriteDesc{Version: 2, Off: 50, Len: 100, SizeAfter: 150, Kind: KindAppend}); err != nil {
		t.Fatal(err)
	}
	if h.Latest() != 2 {
		t.Errorf("Latest = %d", h.Latest())
	}
	if h.SizeAt(1) != 100 || h.SizeAt(2) != 150 {
		t.Error("SizeAt wrong")
	}
	if h.SizeAt(9) != -1 {
		t.Error("unknown version size should be -1")
	}
	d, ok := h.Desc(2)
	if !ok || d.Kind != KindAppend {
		t.Error("Desc(2) wrong")
	}
	if _, ok := h.Desc(0); ok {
		t.Error("Desc(0) should not exist")
	}
}

func TestHistoryLatestIntersecting(t *testing.T) {
	h := &History{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.Append(WriteDesc{Version: 1, Off: 0, Len: 400, SizeAfter: 400}))   // blocks 0-3
	must(h.Append(WriteDesc{Version: 2, Off: 100, Len: 200, SizeAfter: 400})) // blocks 1-2
	must(h.Append(WriteDesc{Version: 3, Off: 400, Len: 100, SizeAfter: 500})) // block 4
	must(h.Append(WriteDesc{Version: 4, Off: 500, Len: 100, SizeAfter: 600})) // block 5, then aborted
	must(h.Append(WriteDesc{Version: 5, Off: 800, Len: 100, SizeAfter: 900})) // block 8: 6-7 are a hole
	if !h.MarkAborted(4) {
		t.Fatal("MarkAborted(4) = false")
	}

	cases := []struct {
		r    Range
		upTo Version
		want Version
	}{
		{Range{0, 100}, 3, 1},   // only v1 touched block 0
		{Range{100, 100}, 3, 2}, // v2 overwrote block 1
		{Range{100, 100}, 1, 1}, // capped at v1
		{Range{400, 100}, 3, 3},
		{Range{400, 100}, 2, NoVersion}, // block 4 did not exist before v3
		{Range{500, 100}, 3, NoVersion},
		{Range{0, 500}, 3, 3},
		{Range{0, 500}, 99, 3}, // upTo beyond history is clamped
		// At or past the blob's size as of upTo: answered without a scan.
		{Range{500, 100}, 4, 4}, // an aborted version still counts, and still grew the blob
		{Range{600, 100}, 4, NoVersion},
		{Range{599, 2}, 4, 4},
		{Range{900, 100}, 5, NoVersion},
		{Range{1 << 40, 100}, 99, NoVersion},
		{Range{0, 100}, 0, NoVersion},
		// A never-written hole inside the blob: the scan finds nothing either.
		{Range{600, 200}, 5, NoVersion},
		{Range{600, 300}, 5, 5},
	}
	for _, c := range cases {
		if got := h.LatestIntersecting(c.r, c.upTo); got != c.want {
			t.Errorf("LatestIntersecting(%v, %d) = %d, want %d", c.r, c.upTo, got, c.want)
		}
	}
}

func TestHistoryExtend(t *testing.T) {
	h := &History{}
	if err := h.Extend([]WriteDesc{{Version: 1, Len: 10, SizeAfter: 10}, {Version: 2, Len: 5, Off: 10, SizeAfter: 15}}); err != nil {
		t.Fatal(err)
	}
	// Overwrite version 2 with an aborted marker, add version 3.
	if err := h.Extend([]WriteDesc{{Version: 2, Len: 5, Off: 10, SizeAfter: 15, Aborted: true}, {Version: 3, Off: 15, Len: 1, SizeAfter: 16}}); err != nil {
		t.Fatal(err)
	}
	d, _ := h.Desc(2)
	if !d.Aborted {
		t.Error("Extend did not overwrite descriptor")
	}
	if h.Latest() != 3 {
		t.Errorf("Latest = %d", h.Latest())
	}
	if err := h.Extend([]WriteDesc{{Version: 9}}); err == nil {
		t.Error("gap extend accepted")
	}
	if err := h.Extend([]WriteDesc{{Version: 0}}); err == nil {
		t.Error("version-0 descriptor accepted")
	}
}

// TestHistoryViewIsImmutable: a view taken at length n is a value. The
// owner appending, re-extending an identical overlapping suffix, really
// changing an entry and aborting a version never shows through it, and
// the holder changing its view never reaches the owner.
func TestHistoryViewIsImmutable(t *testing.T) {
	desc := func(v int) WriteDesc {
		return WriteDesc{Version: Version(v), Off: int64(v-1) * 10, Len: 10, SizeAfter: int64(v) * 10, Kind: KindAppend, Nonce: uint64(v)}
	}
	f := func(seed uint64) bool {
		r := util.NewSplitMix64(seed)
		h := &History{}
		type held struct {
			view *History
			want []WriteDesc
		}
		var views []held
		for step := 0; step < 200; step++ {
			n := h.Len()
			switch op := r.Intn(6); {
			case op <= 1 || n == 0:
				if h.Append(desc(n+1)) != nil {
					return false
				}
			case op == 2: // an assignment reply overlapping what is cached
				from := 1 + r.Intn(n)
				suffix := append([]WriteDesc(nil), h.Descs[from-1:]...)
				suffix = append(suffix, desc(n+1))
				if h.Extend(suffix) != nil {
					return false
				}
			case op == 3: // the same, with an entry that changed after a repair
				d := h.Descs[r.Intn(n)]
				d.Aborted = true
				if h.Extend([]WriteDesc{d}) != nil {
					return false
				}
			case op == 4:
				v := Version(1 + r.Intn(n))
				if !h.MarkAborted(v) {
					return false
				}
				if d, _ := h.Desc(v); !d.Aborted {
					return false
				}
			default:
				v := h.View()
				views = append(views, held{&v, append([]WriteDesc(nil), v.Descs...)})
				if r.Intn(4) == 0 { // a holder that writes to its view
					mine := h.View()
					mine.MarkAborted(Version(1 + r.Intn(n)))
					mine.Append(desc(n + 1))
				}
			}
			for _, hv := range views {
				if !slices.EqualFunc(hv.view.Descs, hv.want, WriteDesc.Equal) {
					return false
				}
			}
			for i, d := range h.Descs {
				if d.Version != Version(i+1) {
					return false
				}
			}
		}
		return h.MarkAborted(Version(h.Len()+1)) == false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHistoryViewUnderRace: a goroutine reads its view, lock-free,
// while the owner keeps changing the history (run with -race).
func TestHistoryViewUnderRace(t *testing.T) {
	h := &History{}
	for v := 1; v <= 64; v++ {
		if err := h.Append(WriteDesc{Version: Version(v), Off: int64(v), Len: 1, SizeAfter: int64(v + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	view := h.View()
	want := append([]WriteDesc(nil), view.Descs...)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, d := range want {
				if got, ok := view.Desc(Version(i + 1)); !ok || !got.Equal(d) {
					t.Errorf("view of version %d changed to %+v", i+1, got)
					return
				}
			}
			if view.LatestIntersecting(Range{Off: 3, Len: 1}, 64) != 3 || view.Len() != 64 {
				t.Error("view changed")
				return
			}
		}
	}()
	for v := 65; v <= 4000; v++ {
		if err := h.Append(WriteDesc{Version: Version(v), Off: int64(v), Len: 1, SizeAfter: int64(v + 1)}); err != nil {
			t.Fatal(err)
		}
		switch v % 3 {
		case 0:
			if err := h.Extend(h.Descs[v-40:]); err != nil { // identical overlapping suffix
				t.Fatal(err)
			}
		case 1:
			h.MarkAborted(Version(1 + v%64))
			h.View() // a later view must not make the first one writable again
		}
	}
	close(stop)
	<-done
	for v := Version(1); v <= 64; v++ {
		if d, _ := h.Desc(v); !d.Aborted {
			t.Fatalf("owner lost the abort of version %d", v)
		}
	}
}

// TestBlockKeyFormat pins the store key: providers, GC prefixes and
// block reports all parse it.
func TestBlockKeyFormat(t *testing.T) {
	k := BlockKey{Blob: 12, Nonce: 0xdeadbeef01, Seq: 7}
	if k.String() != "b12/deadbeef01/7" || k.WritePrefix() != "b12/deadbeef01/" {
		t.Errorf("key %q prefix %q", k.String(), k.WritePrefix())
	}
	if got, err := ParseBlockKey(BlockKey{Blob: 1, Nonce: ^uint64(0), Seq: ^uint32(0)}.String()); err != nil || got.Nonce != ^uint64(0) || got.Seq != ^uint32(0) {
		t.Errorf("round trip: %+v, %v", got, err)
	}
}

func TestBlocksAndSpan(t *testing.T) {
	const B = 64 * util.MB
	cases := []struct {
		size, wantBlocks, wantSpan int64
	}{
		{0, 0, B},
		{1, 1, B},
		{B, 1, B},
		{B + 1, 2, 2 * B},
		{3 * B, 3, 4 * B},
		{246 * B, 246, 256 * B},
	}
	for _, c := range cases {
		if got := Blocks(c.size, B); got != c.wantBlocks {
			t.Errorf("Blocks(%d) = %d, want %d", c.size, got, c.wantBlocks)
		}
		if got := SpanBytes(c.size, B); got != c.wantSpan {
			t.Errorf("SpanBytes(%d) = %d, want %d", c.size, got, c.wantSpan)
		}
	}
}

func TestLatestIntersectingMatchesBruteForce(t *testing.T) {
	// Property: LatestIntersecting agrees with a direct scan for random
	// histories and query ranges.
	f := func(seed uint64, qOff, qLen uint16) bool {
		r := util.NewSplitMix64(seed)
		h := &History{}
		size := int64(0)
		for v := 1; v <= 20; v++ {
			off := r.Int63n(1000)
			ln := 1 + r.Int63n(200)
			if end := off + ln; end > size {
				size = end
			}
			if err := h.Append(WriteDesc{Version: Version(v), Off: off, Len: ln, SizeAfter: size}); err != nil {
				return false
			}
		}
		q := Range{Off: int64(qOff % 1200), Len: int64(qLen%300) + 1}
		upTo := Version(r.Intn(22))
		got := h.LatestIntersecting(q, upTo)
		want := NoVersion
		limit := upTo
		if limit > h.Latest() {
			limit = h.Latest()
		}
		for v := Version(1); v <= limit; v++ {
			d, _ := h.Desc(v)
			if d.Range().Intersects(q) {
				want = v
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteKindString(t *testing.T) {
	if KindWrite.String() != "write" || KindAppend.String() != "append" {
		t.Error("WriteKind strings wrong")
	}
}

func TestBlockKeyString(t *testing.T) {
	k := BlockKey{Blob: 7, Nonce: 0xff, Seq: 3}
	if k.String() != "b7/ff/3" {
		t.Errorf("BlockKey string = %q", k.String())
	}
}

func TestParseBlockKeyRoundTrip(t *testing.T) {
	keys := []BlockKey{
		{Blob: 1, Nonce: 0, Seq: 0},
		{Blob: 7, Nonce: 0xff, Seq: 3},
		{Blob: 1<<64 - 1, Nonce: 1<<64 - 1, Seq: 1<<32 - 1},
		{Blob: 42, Nonce: 0xdeadbeef, Seq: 12345},
	}
	for _, k := range keys {
		got, err := ParseBlockKey(k.String())
		if err != nil || got != k {
			t.Errorf("ParseBlockKey(%q) = %v, %v", k.String(), got, err)
		}
	}
	bad := []string{"", "b", "x7/ff/3", "b7/ff", "b7/ff/3/4", "b7/ff/3x", "t1/2/0/4", "b7/fg/3"}
	for _, s := range bad {
		if _, err := ParseBlockKey(s); err == nil {
			t.Errorf("ParseBlockKey(%q) accepted malformed key", s)
		}
	}
}

func TestBlockKeyWritePrefix(t *testing.T) {
	w := BlockKey{Blob: 1, Nonce: 0x1}
	// The prefix matches every seq of the same write...
	for _, seq := range []uint32{0, 1, 9, 10, 12345, 1<<32 - 1} {
		k := BlockKey{Blob: w.Blob, Nonce: w.Nonce, Seq: seq}
		if !strings.HasPrefix(k.String(), w.WritePrefix()) {
			t.Errorf("prefix %q does not match %q", w.WritePrefix(), k)
		}
	}
	// ...and never a key of a different nonce or blob, even ones whose
	// decimal/hex renderings share leading digits.
	others := []BlockKey{
		{Blob: 1, Nonce: 0x12, Seq: 0},
		{Blob: 1, Nonce: 0x10, Seq: 0},
		{Blob: 1, Nonce: 0x21, Seq: 0},
		{Blob: 11, Nonce: 0x1, Seq: 0},
		{Blob: 2, Nonce: 0x1, Seq: 0},
	}
	for _, o := range others {
		if strings.HasPrefix(o.String(), w.WritePrefix()) {
			t.Errorf("prefix %q wrongly matches %q", w.WritePrefix(), o)
		}
	}
}

// TestLatestIntersectingIndexMatchesScan: the indexed scan answers as a
// plain backward scan does, over random histories of appends, overwrites,
// writes past a hole, aborted versions and entries Extend rewrote with
// another range — on the owner, on views taken along the way, and on a
// history made from a Descs literal, which has no index.
func TestLatestIntersectingIndexMatchesScan(t *testing.T) {
	scan := func(descs []WriteDesc, r Range, upTo Version) Version {
		for v := min(upTo, Version(len(descs))); v >= 1; v-- {
			if descs[v-1].Range().Intersects(r) {
				return v
			}
		}
		return NoVersion
	}
	f := func(seed uint64) bool {
		rng := util.NewSplitMix64(seed)
		h := &History{}
		var views []History
		size, n := int64(0), 1+rng.Intn(2000)
		for v := 1; v <= n; v++ {
			d := WriteDesc{Version: Version(v), Off: size, Len: 1 + rng.Int63n(64), Nonce: uint64(v)}
			switch op := rng.Intn(10); {
			case op < 3 && size > 0: // an overwrite somewhere inside
				d.Off = rng.Int63n(size)
			case op == 3: // a write past a hole
				d.Off = size + rng.Int63n(200)
			case op == 4:
				d.Aborted = true
			}
			size = max(size, d.Range().End())
			d.SizeAfter = size
			if h.Append(d) != nil {
				return false
			}
			switch rng.Intn(40) {
			case 0: // a repair rewrote an entry: another range inside the same size
				e := h.Descs[rng.Intn(v)]
				e.Off = rng.Int63n(e.SizeAfter)
				e.Len = rng.Int63n(e.SizeAfter - e.Off + 1)
				e.Aborted = true
				if h.Extend([]WriteDesc{e}) != nil {
					return false
				}
			case 1:
				h.MarkAborted(Version(1 + rng.Intn(v)))
			case 2:
				views = append(views, h.View())
			}
		}
		literal := History{Descs: slices.Clone(h.Descs)}
		for _, hv := range append(views, *h, literal) {
			for q := 0; q < 200; q++ {
				r := Range{Off: rng.Int63n(size + 10), Len: 1 + rng.Int63n(1+size/8)}
				upTo := Version(rng.Intn(hv.Len() + 2))
				if d := hv.Descs[rng.Intn(hv.Len())]; q%2 == 1 && d.Len > 0 {
					// One byte at an edge of a write: a group's range must
					// hold its writes' first and last bytes exactly.
					r = Range{Off: d.Off, Len: 1}
					if q%4 == 1 {
						r.Off = d.Range().End() - 1
					}
					upTo = d.Version + Version(rng.Intn(3*spanFan))
				}
				if got, want := hv.LatestIntersecting(r, upTo), scan(hv.Descs, r, upTo); got != want {
					t.Logf("seed %d: LatestIntersecting(%v, %d) over %d versions = %d, the scan says %d", seed, r, upTo, hv.Len(), got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
