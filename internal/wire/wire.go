// Package wire implements the binary encoding used by every daemon in
// the reproduction: a sticky-error buffer codec for message bodies and
// length-prefixed framing for the transport. Hand-rolled encoding keeps
// the data path allocation-light and dependency-free (stdlib only).
//
// Buffer ownership: a GetBuf slice (and a Buffer's frame) is its
// holder's until PutBuf, which takes the only reference; the next
// GetBuf may hand it out again. PoisonReleased (tests) fills released
// buffers with 0xDB and panics on a double release.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
)

// ErrFrameTooLarge is returned when an incoming frame exceeds the
// reader's configured limit (protects daemons from corrupt peers).
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrShortBuffer is returned when decoding runs past the end of a
// message body.
var ErrShortBuffer = errors.New("wire: short buffer")

// MaxFrameSize is the default frame limit: one 64 MB block plus
// generous protocol overhead.
const MaxFrameSize = 80 << 20

// Buffer encodes a message body. The zero value is ready to use.
//
// A frame (NewFrame) is a recycled Buffer over a recycled slice: Release
// hands both back to their free lists, and the Buffer is dead from then
// on, like every slice obtained from it. A frame's bytes come in three
// kinds, sent in this order: the body, which the frame owns; byte tails
// (Tail32, Attach), slices sent by reference that stay the caller's; and
// file tails (AttachFile), file ranges the frame owns and closes on
// Release, sent or not. The tails collect in vectors the Buffer keeps
// when it is reused, so once warm neither a frame nor its tails allocate.
type Buffer struct {
	b     []byte
	head  int        // bytes of b in front of the body (a frame's header room)
	tails [][]byte   // the slices sent after the body, by reference (Attach)
	files []FileTail // the file ranges sent after the slices (AttachFile)
	freed bool       // released: dead until NewFrame hands it out again
}

// FileTail is N bytes of F at Off, sent after a frame's byte tails.
type FileTail struct {
	F      *os.File
	Off, N int64
}

// maxKeptTails bounds the tail vector a recycled Buffer keeps.
const maxKeptTails = 64

// framesIdle is how many released frame Buffers wait for reuse, all of
// them allocated in one go on the first NewFrame.
const framesIdle = 256

// freeFrames is the frame Buffers' free list: a bounded stack, like a
// size class of GetBuf's, so what a running process allocates per frame
// depends neither on when collections run nor on how many frames were
// ever in flight at once.
var freeFrames struct {
	mu   sync.Mutex
	idle []*Buffer // nil until the first NewFrame
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer { return &Buffer{b: make([]byte, 0, capacity)} }

// NewFrame returns a recycled Buffer over a recycled slice (GetBuf) that
// keeps head bytes free in front of the body, so a transport can put its
// headers there and send headers and body with one write. Whoever ends
// up owning the frame calls Release exactly once.
func NewFrame(head, capacity int) *Buffer {
	l := &freeFrames
	l.mu.Lock()
	if l.idle == nil {
		all := make([]Buffer, framesIdle)
		l.idle = make([]*Buffer, framesIdle)
		for i := range all {
			all[i].freed = true
			l.idle[i] = &all[i]
		}
	}
	var e *Buffer
	if k := len(l.idle) - 1; k >= 0 {
		e, l.idle = l.idle[k], l.idle[:k]
		e.freed = false
	}
	l.mu.Unlock()
	if e == nil { // more frames in flight than the list holds
		e = &Buffer{}
	}
	e.b, e.head = GetBuf(head + capacity)[:head], head
	return e
}

// Raw returns the header room followed by the body.
func (e *Buffer) Raw() []byte {
	if e.freed {
		misuse("Raw")
	}
	return e.b
}

// Release recycles a frame's slice and the Buffer itself; both, and every
// slice obtained from them, are dead afterwards. Byte tails are let go
// of, file tails closed. Releasing a dead Buffer again does nothing.
func (e *Buffer) Release() {
	if e.freed {
		misuse("Release")
		return
	}
	PutBuf(e.b)
	e.b, e.head = nil, 0
	e.dropTails()
	if cap(e.tails) > maxKeptTails || cap(e.files) > maxKeptTails {
		e.tails, e.files = nil, nil
	}
	if poisoned.on.Load() {
		e.freed = true // retired, so that any later use panics
		return
	}
	l := &freeFrames
	l.mu.Lock()
	e.freed = true
	if len(l.idle) < cap(l.idle) {
		l.idle = append(l.idle, e)
	}
	l.mu.Unlock()
}

// misuse reports a use of a released Buffer: a panic under
// PoisonReleased, where a released frame is never handed out again, and
// nothing otherwise (a second Release stays harmless).
func misuse(op string) {
	if poisoned.on.Load() {
		panic("wire: " + op + " of a released frame")
	}
}

// Tail32 ends the body with a length-prefixed (u32) byte slice like
// Bytes32, but by reference: only the prefix is encoded (Bytes and Len
// stop there) and the transport, rpc, sends v itself after it. v stays
// the caller's and must not change until the frame has been sent.
func (e *Buffer) Tail32(v []byte) {
	e.U32(uint32(len(v)))
	e.Attach(v)
}

// Attach sends v after the body and after every slice attached before
// it, by reference, with no prefix: the body must already say how long v
// is. Like Tail32's slice, v stays the caller's and must not change until
// the frame has been sent; only Attach or AttachFile may follow it.
func (e *Buffer) Attach(v []byte) {
	if len(e.files) > 0 {
		panic("wire: Attach after AttachFile")
	}
	if len(v) > 0 { // an empty slice has nothing to send
		e.tails = append(e.tails, v)
	}
}

// AttachFile sends n bytes of f at off after every tail attached before
// it, which the body must say, like Attach's. The frame owns f and closes
// it on Release, sent or not; nothing but an AttachFile may follow it.
func (e *Buffer) AttachFile(f *os.File, off, n int64) {
	e.files = append(e.files, FileTail{F: f, Off: off, N: n})
}

// Files returns the file tails in order; they stay the frame's.
func (e *Buffer) Files() []FileTail { return e.files }

// dropTails lets go of the slices, closes the files and keeps the vectors.
func (e *Buffer) dropTails() {
	clear(e.tails)
	e.tails = e.tails[:0]
	for _, t := range e.files {
		t.F.Close()
	}
	clear(e.files)
	e.files = e.files[:0]
}

// open starts every append: a released Buffer takes none, and a tail
// ends the body, nothing follows it.
func (e *Buffer) open() {
	if e.freed {
		misuse("encode")
	}
	if len(e.tails) > 0 || len(e.files) > 0 {
		panic("wire: encode after Tail32")
	}
}

// Tail returns the first slice attached, nil if none.
func (e *Buffer) Tail() []byte {
	if len(e.tails) == 0 {
		return nil
	}
	return e.tails[0]
}

// AppendTails appends every slice attached, in order, to vec.
func (e *Buffer) AppendTails(vec [][]byte) [][]byte { return append(vec, e.tails...) }

// Bytes returns the encoded body.
func (e *Buffer) Bytes() []byte { return e.b[e.head:] }

// Len returns the number of encoded bytes.
func (e *Buffer) Len() int { return len(e.b) - e.head }

// Reset clears the buffer for reuse.
func (e *Buffer) Reset() {
	e.b = e.b[:e.head]
	e.dropTails()
}

// Extend appends n bytes of unspecified content and returns them, for a
// caller that reads into the body directly; Truncate cuts the body back
// to n bytes when the read came up short.
func (e *Buffer) Extend(n int) []byte {
	e.open()
	e.b = slices.Grow(e.b, n)[:len(e.b)+n]
	return e.b[len(e.b)-n:]
}

// Truncate shortens the body to its first n bytes.
func (e *Buffer) Truncate(n int) { e.b = e.b[:e.head+n] }

// U8 appends a byte.
func (e *Buffer) U8(v uint8) { e.open(); e.b = append(e.b, v) }

// U16 appends a big-endian uint16.
func (e *Buffer) U16(v uint16) { e.open(); e.b = binary.BigEndian.AppendUint16(e.b, v) }

// U32 appends a big-endian uint32.
func (e *Buffer) U32(v uint32) { e.open(); e.b = binary.BigEndian.AppendUint32(e.b, v) }

// U64 appends a big-endian uint64.
func (e *Buffer) U64(v uint64) { e.open(); e.b = binary.BigEndian.AppendUint64(e.b, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *Buffer) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (e *Buffer) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (e *Buffer) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes32 appends a length-prefixed (u32) byte slice.
func (e *Buffer) Bytes32(v []byte) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// String appends a length-prefixed (u32) string.
func (e *Buffer) String(v string) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// StringSlice appends a u32 count followed by each string.
func (e *Buffer) StringSlice(vs []string) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.String(v)
	}
}

// KV is one key/value pair of a batched message: the metadata DHT's
// multi-put carries a whole write's tree nodes in one frame instead of
// one message per pair.
type KV struct {
	Key string
	Val []byte
}

// Chunk is one frame of a chunked streaming transfer: a piece of a
// larger value, addressed by its byte offset within that value. The
// data plane streams blocks to providers as a sequence of chunks so a
// block never has to travel as one monolithic RPC payload — each hop of
// a replication chain can persist a chunk and forward it downstream
// while later chunks are still in flight. Chunks are self-describing
// (every frame carries the total length), so they may be applied in any
// arrival order; a transfer is complete when Total bytes have landed.
type Chunk struct {
	Off   int64  // byte offset of this frame within the value
	Total int64  // total length of the value being streamed
	Data  []byte // frame payload
}

// Last reports whether the chunk covers the value's final byte.
func (c Chunk) Last() bool { return c.Off+int64(len(c.Data)) == c.Total }

// Chunk ends the body with one streaming frame, its data by reference
// (Tail32).
func (e *Buffer) Chunk(c Chunk) {
	e.I64(c.Off)
	e.I64(c.Total)
	e.Tail32(c.Data)
}

// Reader decodes a message body. Decoding errors are sticky: once a
// read fails, all subsequent reads return zero values and Err() reports
// the first failure. This keeps decoder call sites linear and readable.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over body.
func NewReader(body []byte) *Reader { return &Reader{b: body} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShortBuffer
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a length-prefixed byte slice. The returned slice
// aliases the underlying body; callers that retain it must copy.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if int(n) > r.Remaining() {
		r.fail()
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes32()) }

// StringSlice reads a u32 count followed by each string.
func (r *Reader) StringSlice() []string {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if int(n) > r.Remaining()/4+1 { // each string needs >= 4 prefix bytes
		r.fail()
		return nil
	}
	vs := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		vs = append(vs, r.String())
		if r.err != nil {
			return nil
		}
	}
	return vs
}

// Chunk reads one streaming frame. The data aliases the underlying
// body; callers that retain it must copy.
func (r *Reader) Chunk() Chunk {
	return Chunk{
		Off:   r.I64(),
		Total: r.I64(),
		Data:  r.Bytes32(),
	}
}

// FrameLenSize is the size of a frame's length prefix.
const FrameLenSize = 4

// WriteFrame writes a length-prefixed frame to w with one Write, from a
// recycled buffer; body is not retained.
func WriteFrame(w io.Writer, body []byte) error {
	b := GetBuf(FrameLenSize + len(body))
	defer PutBuf(b)
	b = append(binary.BigEndian.AppendUint32(b, uint32(len(body))), body...)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r, enforcing limit
// (MaxFrameSize if limit <= 0). The returned slice is the caller's.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	if limit <= 0 {
		limit = MaxFrameSize
	}
	var hdr [FrameLenSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int(n) > limit {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return body, nil
}
