package vmanager

import (
	"fmt"
	"slices"

	"blobseer/internal/blob"
	"blobseer/internal/wire"
)

// Move relocates one replica of a stored block: the block's slot in its
// write's placement names To where it named From. Repair makes one for
// each copy it pushes in place of a replica on a dead or draining
// provider.
type Move struct {
	Key      blob.BlockKey // the write's nonce and the block's seq in it
	From, To string
}

// Relocate amends the placements of published writes of blob id, the
// only change a write's descriptor takes after its ack: each move puts
// its To in its block's replica slot in place of its From. The moves are
// checked, journaled as one record and applied through applyRelocate,
// as replay applies them; one refused move refuses them all, and a call
// left with nothing to apply (a retry) journals nothing. Each change
// copies the placement, and the history where a reader's page shares it
// (blob.History.SetReplicas): repair sends one call per blob per pass.
func (s *State) Relocate(id blob.ID, moves []Move) error {
	st := s.stripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[id]
	if !ok {
		return ErrUnknownBlob
	}
	if placed, err := bs.relocated(moves); err != nil || len(placed) == 0 {
		return err // refused, or nothing left to apply
	}
	if err := s.appendStriped(func() []byte { return encodeRelocate(id, moves) }); err != nil {
		return err
	}
	return bs.applyRelocate(moves, &s.placements)
}

// applyRelocate installs what the moves make of the placements they
// touch, each interned in in when it is a short one.
func (bs *blobState) applyRelocate(moves []Move, in *interner) error {
	placed, err := bs.relocated(moves)
	for v, p := range placed {
		bs.hist.SetReplicas(v, in.placement(p))
	}
	return err
}

// relocated returns, by version, the placements the moves leave, on
// copies. A move must name a block placedBlock finds and a From in its
// slot as the moves before it left it, and a non-empty To the slot does
// not hold; one whose From is gone and To there is applied already.
func (bs *blobState) relocated(moves []Move) (map[blob.Version][]string, error) {
	placed := make(map[blob.Version][]string)
	R := bs.meta.Replication
	for _, mv := range moves {
		k := mv.Key
		d, err := bs.placedBlock(k)
		if err != nil {
			return nil, err
		}
		p, ok := placed[d.Version]
		if !ok {
			p = slices.Clone(d.Replicas)
		}
		slot := p[int(k.Seq)*R : (int(k.Seq)+1)*R]
		switch i := slices.Index(slot, mv.From); {
		case i < 0 && slices.Contains(slot, mv.To):
			continue // already applied
		case i < 0:
			return nil, fmt.Errorf("%w: block %s is not on %q", ErrBadPlacement, k, mv.From)
		case mv.To == "" || slices.Contains(slot, mv.To):
			return nil, fmt.Errorf("%w: block %s cannot move to %q", ErrBadPlacement, k, mv.To)
		default:
			slot[i] = mv.To
		}
		placed[d.Version] = p
	}
	return placed, nil
}

// placedBlock returns the descriptor of the newest write with k's
// nonce, which must be published, not aborted, and place block k.Seq:
// a scan of the history, which only relocations and lookups pay for.
func (bs *blobState) placedBlock(k blob.BlockKey) (blob.WriteDesc, error) {
	i := len(bs.hist.Descs) - 1
	for i >= 0 && bs.hist.Descs[i].Nonce != k.Nonce {
		i--
	}
	switch {
	case k.Blob != bs.meta.ID || i < 0 || blob.Version(i+1) > bs.published:
		return blob.WriteDesc{}, fmt.Errorf("%w: no published write of blob %d stored block %s", ErrBadVersion, bs.meta.ID, k)
	case bs.hist.Descs[i].Aborted:
		return blob.WriteDesc{}, fmt.Errorf("%w: version %d, block %s", ErrAborted, i+1, k)
	case int64(k.Seq) >= blob.Blocks(bs.hist.Descs[i].Len, bs.meta.BlockSize) || len(bs.hist.Descs[i].Replicas) == 0:
		return blob.WriteDesc{}, fmt.Errorf("%w: version %d places no block %d", ErrBadPlacement, i+1, k.Seq)
	}
	return bs.hist.Descs[i], nil
}

// Replicas returns the replica addresses of the block key names, primary
// first, as relocations left its write's placement: what a reader asks
// for once every replica its snapshot names has failed. The slice is
// read-only.
func (s *State) Replicas(key blob.BlockKey) ([]string, error) {
	st := s.stripeFor(key.Blob)
	st.mu.Lock()
	defer st.mu.Unlock()
	bs, ok := st.blobs[key.Blob]
	if !ok {
		return nil, ErrUnknownBlob
	}
	d, err := bs.placedBlock(key)
	if err != nil {
		return nil, err
	}
	lo := int(key.Seq) * bs.meta.Replication
	return d.Replicas[lo : lo+bs.meta.Replication], nil
}

// encodeMoves writes moves: u32 n | n × (nonce u64 | seq u32 | from |
// to), the blob ID being the record's or the request's.
func encodeMoves(b *wire.Buffer, moves []Move) {
	b.U32(uint32(len(moves)))
	for _, mv := range moves {
		b.U64(mv.Key.Nonce)
		b.U32(mv.Key.Seq)
		b.String(mv.From)
		b.String(mv.To)
	}
}

// decodeMoves reads what encodeMoves wrote, the moves of blob id, their
// addresses interned in in. A count the bytes left cannot hold (a move
// takes 20 bytes at least) fails before anything is allocated for it.
func decodeMoves(r *wire.Reader, id blob.ID, in *interner) ([]Move, error) {
	n := r.U32()
	if uint64(n)*20 > uint64(r.Remaining()) {
		return nil, errDescCount
	}
	moves := make([]Move, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		mv := Move{Key: blob.BlockKey{Blob: id, Nonce: r.U64(), Seq: r.U32()}}
		mv.From, mv.To = in.addr(r.Bytes32()), in.addr(r.Bytes32())
		moves = append(moves, mv)
	}
	return moves, r.Err()
}

// encodeRelocate -> recRelocate | id | moves
func encodeRelocate(id blob.ID, moves []Move) []byte {
	b := wire.NewBuffer(16 + len(moves)*48)
	b.U8(recRelocate)
	b.U64(uint64(id))
	encodeMoves(b, moves)
	return b.Bytes()
}
