package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
)

// Every byte the program under test sees is derived from -seed here;
// nothing in the timed path generates random data. Payloads are a
// seeded base buffer with a 16-byte stamp at the head of each 64 KB
// chunk, so a reader can verify any chunk on its own — identity from
// the stamp, content from a CRC precomputed over the base — without a
// second copy of what was written.

const (
	chunkSize = 64 << 10 // one application Write/Read call, one append block
	stampSize = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seededBytes fills n bytes from (seed, stream).
func seededBytes(seed, stream uint64, n int) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], stream)
	buf := make([]byte, n)
	_, _ = rand.NewChaCha8(key).Read(buf) // documented to never fail
	return buf
}

// seededRand returns the offset generator for (seed, stream).
func seededRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// payload is the seeded base all stamped chunks are cut from.
type payload struct {
	base []byte   // a whole number of chunks
	crcs []uint32 // CRC-32C of each base chunk past its stamp
}

func newPayload(seed uint64, size int) *payload {
	p := &payload{base: seededBytes(seed, 1, size)}
	for off := 0; off < size; off += chunkSize {
		p.crcs = append(p.crcs, crc32.Checksum(p.base[off+stampSize:off+chunkSize], castagnoli))
	}
	return p
}

func (p *payload) chunks() int { return len(p.crcs) }

// clone returns a private copy of the base a client may stamp in place.
func (p *payload) clone() []byte { return bytes.Clone(p.base) }

// stamp writes (tag, idx) at the head of a chunk.
func stamp(chunk []byte, tag, idx uint64) {
	binary.LittleEndian.PutUint64(chunk[0:], tag)
	binary.LittleEndian.PutUint64(chunk[8:], idx)
}

// verifyChunk checks that chunk carries (tag, idx) and the content of
// base chunk baseIdx.
func (p *payload) verifyChunk(chunk []byte, tag, idx uint64, baseIdx int) error {
	if len(chunk) != chunkSize {
		return fmt.Errorf("chunk %d: %d bytes, want %d", idx, len(chunk), chunkSize)
	}
	gotTag, gotIdx := binary.LittleEndian.Uint64(chunk[0:]), binary.LittleEndian.Uint64(chunk[8:])
	if gotTag != tag || gotIdx != idx {
		return fmt.Errorf("chunk stamp (%#x,%d), want (%#x,%d)", gotTag, gotIdx, tag, idx)
	}
	if crc32.Checksum(chunk[stampSize:], castagnoli) != p.crcs[baseIdx] {
		return fmt.Errorf("chunk (%#x,%d): content CRC mismatch", tag, idx)
	}
	return nil
}

// fillWords fills buf with one repeated 8-byte word naming (block,
// seq) — mixed_rw's block content. Any sub-range of a block, at any
// byte offset, can then be checked for tearing: it must be periodic
// with period 8 and its aligned word must name the block it was read
// from.
func fillWords(buf []byte, block, seq uint32) {
	binary.LittleEndian.PutUint32(buf[0:], block)
	binary.LittleEndian.PutUint32(buf[4:], seq)
	for n := 8; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// verifyWords checks that seg, read from byte offset inBlock of block,
// is one uniform (block, seq) pattern, and returns the seq.
func verifyWords(seg []byte, block uint32, inBlock int64) (uint32, error) {
	if len(seg) > 8 && !bytes.Equal(seg[8:], seg[:len(seg)-8]) {
		return 0, fmt.Errorf("block %d: torn read (segment is not one write's pattern)", block)
	}
	skip := int((8 - inBlock%8) % 8) // to the first word boundary
	if len(seg) < skip+8 {
		return 0, nil // shorter than one aligned word: periodicity is all there is to check
	}
	gotBlock := binary.LittleEndian.Uint32(seg[skip:])
	seq := binary.LittleEndian.Uint32(seg[skip+4:])
	if gotBlock != block {
		return 0, fmt.Errorf("block %d: holds the pattern of block %d", block, gotBlock)
	}
	return seq, nil
}
