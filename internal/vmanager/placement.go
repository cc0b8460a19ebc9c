package vmanager

import (
	"errors"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/util"
	"blobseer/internal/wire"
)

// A descriptor list on the wire — a page of history, an assignment's
// hint, a log record, a snapshot's history — names each replica address
// once, in a table ahead of the descriptors, which name theirs by index:
//
//	descs := u32 naddrs | naddrs × (u32 len | address) | u32 n | n × desc
//	desc  := version u64 | off i64 | len i64 | sizeAfter i64 | kind u8 |
//	         nonce u64 | aborted u8 | u32 k | k × u32 address index
//
// An assign request carries its placement inline, after its other
// fields: u32 k | k × (u32 len | address). A descriptor is
// descWireSize + 4 bytes per address of its placement:
// a one-block write is 50 bytes at replication 1 and 58 at replication
// 3, plus its share of the table, which the descriptors of one
// deployment's writes amortize to nothing across a page. In the version
// manager's memory a WriteDesc is 80 bytes at any replication: its
// placement is a slice header, and the slice, with its addresses, is
// shared with every other one-block write to the same replicas
// (interner).

// descWireSize is the least a descriptor takes on the wire: its fixed
// fields and its address count.
const descWireSize = 8 + 8 + 8 + 8 + 1 + 8 + 1 + 4

// Errors of a descriptor list whose counts the bytes after them cannot
// hold, or whose indices miss its address table.
var (
	errDescCount = errors.New("vmanager: descriptor count exceeds the bytes that follow")
	errAddrTable = errors.New("vmanager: malformed address table")
)

// interner holds the replica addresses and the short placements a
// version manager or its client has decoded or logged, so that the
// descriptors of a history share them instead of each holding copies: a
// steady-state writer's assignment and a reader's page allocate no
// placement of their own. Both tables are bounded: one that reaches
// maxInterned entries starts afresh (a deployment has far fewer
// providers). The zero value is ready to use.
type interner struct {
	mu    sync.Mutex
	addrs map[string]string
	sets  map[placementKey][]string
}

const (
	maxInterned = 4096
	internWidth = 4 // placements of up to this many addresses are shared: one block's at replication <= 4
)

// placementKey names a short placement: its length and its addresses.
type placementKey struct {
	n     int
	addrs [internWidth]string
}

// addr returns the address b spells, shared.
func (in *interner) addr(b []byte) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if a, ok := in.addrs[string(b)]; ok {
		return a
	}
	if len(in.addrs) >= maxInterned || in.addrs == nil {
		in.addrs = make(map[string]string)
	}
	a := string(b)
	in.addrs[a] = a
	return a
}

// placement returns a read-only copy of addrs, shared with every
// placement of the same addresses when it is a short one; nil for none.
// addrs stays the caller's.
func (in *interner) placement(addrs []string) []string {
	if len(addrs) == 0 {
		return nil
	}
	if len(addrs) > internWidth {
		return append([]string(nil), addrs...)
	}
	k := placementKey{n: len(addrs)}
	copy(k.addrs[:], addrs)
	in.mu.Lock()
	defer in.mu.Unlock()
	if p, ok := in.sets[k]; ok {
		return p
	}
	if len(in.sets) >= maxInterned || in.sets == nil {
		in.sets = make(map[placementKey][]string)
	}
	p := append([]string(nil), addrs...)
	in.sets[k] = p
	return p
}

// addrIndex numbers the distinct addresses of one descriptor list as
// encodeDescs writes it. The encoders share a free list of them, so a
// warm encoder allocates none.
type addrIndex struct {
	addrs []string
	of    map[string]uint32
}

var addrIndexes util.FreeList[*addrIndex]

// encodeDescs writes ds in the layout above.
func encodeDescs(b *wire.Buffer, ds []blob.WriteDesc) {
	ix, ok := addrIndexes.Get()
	if !ok {
		ix = &addrIndex{of: make(map[string]uint32)}
	}
	for _, d := range ds {
		for _, a := range d.Replicas {
			if _, ok := ix.of[a]; !ok {
				ix.of[a] = uint32(len(ix.addrs))
				ix.addrs = append(ix.addrs, a)
			}
		}
	}
	b.U32(uint32(len(ix.addrs)))
	for _, a := range ix.addrs {
		b.String(a)
	}
	b.U32(uint32(len(ds)))
	for _, d := range ds {
		b.U64(uint64(d.Version))
		b.I64(d.Off)
		b.I64(d.Len)
		b.I64(d.SizeAfter)
		b.U8(uint8(d.Kind))
		b.U64(d.Nonce)
		b.Bool(d.Aborted)
		b.U32(uint32(len(d.Replicas)))
		for _, a := range d.Replicas {
			b.U32(ix.of[a])
		}
	}
	clear(ix.of)
	clear(ix.addrs)
	ix.addrs = ix.addrs[:0]
	addrIndexes.Put(ix)
}

// decodeDescs reads what encodeDescs wrote into into[:0] (grown if it is
// too short; nil gets a vector of the descriptors' count), their
// placements interned in in. A count is checked against the bytes left
// before anything is allocated for it, so a corrupt message of R bytes
// costs a small multiple of R, whatever count it claims; an empty
// address or an index outside the table fails it. Whether a placement
// fits its descriptor is for its reader to check
// (blob.WriteDesc.CheckPlacement).
func decodeDescs(r *wire.Reader, in *interner, into []blob.WriteDesc) ([]blob.WriteDesc, error) {
	na := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if uint64(na)*5 > uint64(r.Remaining()) { // an address takes its length and a byte at least
		return nil, errAddrTable
	}
	var tab [16]string
	addrs := tab[:0] // grown as addresses decode, not by what na claims
	for i := uint32(0); i < na; i++ {
		a := r.Bytes32()
		if len(a) == 0 {
			return nil, errAddrTable
		}
		addrs = append(addrs, in.addr(a))
	}
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if uint64(n)*descWireSize > uint64(r.Remaining()) {
		return nil, errDescCount
	}
	out := into[:0]
	if cap(out) < int(n) {
		out = make([]blob.WriteDesc, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		d := blob.WriteDesc{
			Version:   blob.Version(r.U64()),
			Off:       r.I64(),
			Len:       r.I64(),
			SizeAfter: r.I64(),
			Kind:      blob.WriteKind(r.U8()),
			Nonce:     r.U64(),
			Aborted:   r.Bool(),
		}
		k := r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if uint64(k)*4 > uint64(r.Remaining()) {
			return nil, errDescCount
		}
		if k > internWidth {
			d.Replicas = make([]string, k)
			if !readIndices(r, addrs, d.Replicas) {
				return nil, errAddrTable
			}
		} else {
			var short [internWidth]string
			if !readIndices(r, addrs, short[:k]) {
				return nil, errAddrTable
			}
			d.Replicas = in.placement(short[:k])
		}
		out = append(out, d)
	}
	return out, r.Err()
}

// readIndices fills dst with the addresses the next len(dst) indices
// name; false if one lies outside addrs.
func readIndices(r *wire.Reader, addrs, dst []string) bool {
	for j := range dst {
		x := r.U32()
		if x >= uint32(len(addrs)) {
			return false
		}
		dst[j] = addrs[x]
	}
	return true
}
