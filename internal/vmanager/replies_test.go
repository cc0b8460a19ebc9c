package vmanager

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/wire"
)

// allocatedBy returns the bytes one run of f allocates, averaged over
// ten runs.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 10
}

// TestDescCountIsBoundedByTheBytes: a reply that claims more
// descriptors, or more addresses, than its bytes hold fails before
// anything is allocated for them, so what a decode allocates follows
// the bytes received, not the count claimed. A count of one descriptor
// per byte was let through once, and cost 56 bytes of memory per byte
// sent.
func TestDescCountIsBoundedByTheBytes(t *testing.T) {
	const body = 4096
	fits, in := uint32(body/descWireSize), new(interner)
	for _, c := range []struct {
		addrs, descs uint32
		want         error
	}{
		{0, fits + 1, errDescCount},
		{0, body / 4, errDescCount},
		{0, body, errDescCount},
		{0, math.MaxUint32, errDescCount},
		{body/5 + 1, 0, errAddrTable},
		{body, 0, errAddrTable},
		{math.MaxUint32, 0, errAddrTable},
	} {
		reply := make([]byte, 8+body)
		binary.BigEndian.PutUint32(reply, c.addrs)
		binary.BigEndian.PutUint32(reply[4:], c.descs)
		var err error
		grew := allocatedBy(func() { _, err = decodeDescs(wire.NewReader(reply), in, nil) })
		if !errors.Is(err, c.want) {
			t.Errorf("%d addresses and %d descriptors in %d bytes decoded with error %v, want %v", c.addrs, c.descs, body, err, c.want)
		}
		if grew > 256 {
			t.Errorf("refusing %d addresses and %d descriptors in %d bytes allocated %d bytes", c.addrs, c.descs, body, grew)
		}
	}
	reply := make([]byte, 8+body)
	binary.BigEndian.PutUint32(reply[4:], fits)
	ds, err := decodeDescs(wire.NewReader(reply), in, nil)
	if err != nil || len(ds) != int(fits) {
		t.Fatalf("a count that fits: %d descriptors, %v; want %d", len(ds), err, fits)
	}
	if grew := allocatedBy(func() { _, _ = decodeDescs(wire.NewReader(reply), in, nil) }); grew > 2*uint64(len(reply)) {
		t.Errorf("%d descriptors in %d bytes allocated %d bytes, want at most twice the bytes", fits, len(reply), grew)
	}
}

// indexPage feeds a decoded page to a reader's block index and resolves
// the whole blob through it, as a pin and a read would. Neither may
// panic, whatever the page says. A page whose descriptors or blob name
// more than a million blocks is let by: indexing it would take the
// memory it claims, the cost of believing a version manager, not a
// decoding fault.
func indexPage(t *testing.T, m blob.Meta, size int64, ds []blob.WriteDesc) {
	const most = 1 << 20
	if m.BlockSize <= 0 || size/m.BlockSize > most {
		return
	}
	blocks := int64(0)
	for _, d := range ds {
		if d.Off >= 0 && d.Len >= 0 && d.Off <= math.MaxInt64-d.Len {
			if blocks += blob.Blocks(d.Len, m.BlockSize) + 1; blocks > most {
				return
			}
		}
	}
	var o mdtree.Owners
	_ = o.Extend(m, ds)
	_, _ = o.Resolve(m, o.Through(), size, blob.Range{Len: size}, new(mdtree.Scratch))
}

// FuzzVMReplies feeds the client's reply decoders — AssignVersion's,
// the head that Latest and WaitPublished answer with, and the
// descriptor list's — arbitrary bytes, as a corrupt or hostile version
// manager would send them. None may panic, together they may allocate
// no more than a small multiple of what they were sent, and every page
// they decode goes through a block index and a whole-blob resolve
// without a panic either.
func FuzzVMReplies(f *testing.F) {
	descs := []blob.WriteDesc{
		{Version: 1, Len: 4096, SizeAfter: 4096, Kind: blob.KindAppend, Nonce: 7, Replicas: []string{"p0", "p1"}},
		{Version: 2, Off: 4096, Len: 100, SizeAfter: 4196, Kind: blob.KindWrite, Nonce: 8, Aborted: true, Replicas: []string{"p1", "p2"}},
		{Version: 3, Len: 8192, SizeAfter: 8192, Kind: blob.KindWrite, Nonce: 9, Replicas: []string{"p2", "p0", "p0", "p1"}},
		{Version: 4, Off: 8192, Len: 4096, SizeAfter: 12288, Kind: blob.KindAppend, Nonce: 10},               // no placement
		{Version: 5, Len: 4096, SizeAfter: 12288, Kind: blob.KindWrite, Nonce: 11, Replicas: []string{"p0"}}, // too short
	}
	reply := func(words int, ds []blob.WriteDesc) []byte {
		b := wire.NewBuffer(64)
		for i := range words {
			b.U64(uint64(i + 1))
		}
		encodeDescs(b, ds)
		return b.Bytes()
	}
	head := func(ds []blob.WriteDesc) []byte {
		b := wire.NewBuffer(64)
		encodeHead(b, Head{Meta: blob.Meta{BlockSize: 4096, Replication: 2}, Published: blob.Version(len(ds)), Oldest: 1, Size: 12288}, ds)
		return b.Bytes()
	}
	f.Add(reply(3, descs[:2])) // an assignment
	f.Add(head(descs[:4]))     // a pin: the head and a page
	f.Add(head(descs))         // a page whose last placement does not fit
	f.Add(head(nil))           // the head alone
	f.Add(head(nil)[:headWireSize-3])
	f.Add(reply(0, descs)) // a descriptor list
	f.Add(reply(0, descs)[:4+3*6+4+descWireSize+3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		in := new(interner)
		grew := allocatedBy(func() {
			_, _ = decodeAssignment(p, in, nil)
			_, _, _ = decodeHead(p, in)
			_, _ = decodeDescs(wire.NewReader(p), in, nil)
		})
		if grew > 4<<10+8*uint64(len(p)) {
			t.Fatalf("a %d-byte reply made the decoders allocate %d bytes", len(p), grew)
		}
		ds, err := decodeDescs(wire.NewReader(p), in, nil)
		if err == nil && 8+len(ds)*descWireSize > len(p) {
			t.Fatalf("%d descriptors decoded out of %d bytes", len(ds), len(p))
		}
		m := blob.Meta{ID: 1, BlockSize: 4096, Replication: 2}
		if err == nil {
			indexPage(t, m, 1<<20, ds)
		}
		if a, err := decodeAssignment(p, in, nil); err == nil {
			indexPage(t, m, a.Size, a.Descs)
		}
		if h, ds, err := decodeHead(p, in); err == nil {
			h.Meta.ID = 1
			indexPage(t, h.Meta, h.Size, ds)
		}
	})
}
