package vmanager

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"blobseer/internal/blob"
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
// descriptors than its bytes hold fails before anything is allocated for
// them, so what a decode allocates follows the bytes received, not the
// count claimed. A count of one descriptor per byte was let through
// once, and cost 56 bytes of memory per byte sent.
func TestDescCountIsBoundedByTheBytes(t *testing.T) {
	const body = 4096
	fits := uint32(body / descWireSize)
	for _, count := range []uint32{fits + 1, body / 4, body, math.MaxUint32} {
		reply := make([]byte, 4+body)
		binary.BigEndian.PutUint32(reply, count)
		var err error
		grew := allocatedBy(func() { _, err = decodeDescs(wire.NewReader(reply)) })
		if !errors.Is(err, errDescCount) {
			t.Errorf("a count of %d in %d bytes decoded with error %v, want errDescCount", count, body, err)
		}
		if grew > 256 {
			t.Errorf("refusing a count of %d in %d bytes allocated %d bytes", count, body, grew)
		}
	}
	reply := make([]byte, 4+body)
	binary.BigEndian.PutUint32(reply, fits)
	ds, err := decodeDescs(wire.NewReader(reply))
	if err != nil || len(ds) != int(fits) {
		t.Fatalf("a count that fits: %d descriptors, %v; want %d", len(ds), err, fits)
	}
	if grew := allocatedBy(func() { _, _ = decodeDescs(wire.NewReader(reply)) }); grew > 2*uint64(len(reply)) {
		t.Errorf("%d descriptors in %d bytes allocated %d bytes, want at most twice the bytes", fits, len(reply), grew)
	}
}

// FuzzVMReplies feeds the client's reply decoders — AssignVersion's,
// the head that Latest and WaitPublished answer with, and the
// descriptor list's — arbitrary bytes, as a corrupt or hostile version
// manager would send them. None may panic, and together they may
// allocate no more than a small multiple of what they were sent.
func FuzzVMReplies(f *testing.F) {
	descs := []blob.WriteDesc{
		{Version: 1, Len: 4096, SizeAfter: 4096, Kind: blob.KindAppend, Nonce: 7},
		{Version: 2, Off: 4096, Len: 100, SizeAfter: 4196, Kind: blob.KindWrite, Nonce: 8, Aborted: true},
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
		encodeHead(b, Head{Meta: blob.Meta{BlockSize: 4096, Replication: 2}, Published: 2, Oldest: 1, Size: 4196}, ds)
		return b.Bytes()
	}
	f.Add(reply(3, descs)) // an assignment
	f.Add(head(descs))     // a pin: the head and a page
	f.Add(head(nil))       // the head alone
	f.Add(head(nil)[:headWireSize-3])
	f.Add(reply(0, descs)) // a descriptor list
	f.Add(reply(0, descs)[:4+descWireSize+3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		grew := allocatedBy(func() {
			_, _ = decodeAssignment(p)
			_, _, _ = decodeHead(p)
			_, _ = decodeDescs(wire.NewReader(p))
		})
		if grew > 4<<10+8*uint64(len(p)) {
			t.Fatalf("a %d-byte reply made the decoders allocate %d bytes", len(p), grew)
		}
		if ds, err := decodeDescs(wire.NewReader(p)); err == nil && 4+len(ds)*descWireSize > len(p) {
			t.Fatalf("%d descriptors decoded out of %d bytes", len(ds), len(p))
		}
	})
}
