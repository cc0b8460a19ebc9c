// Package provider implements BlobSeer's data providers: the daemons
// that physically store the blocks generated by writes and appends
// (Section III-B). A provider is an RPC shell over a store.Store; the
// same implementation backs the datanodes of the HDFS-like baseline,
// which reuses the block read/write protocol.
//
// A block reaches a provider one way, the streaming chained upload: a
// client ships each block once to the head of a replica chain as a
// sequence of fixed-size frames, and every hop persists each frame
// locally while concurrently forwarding it to the next replica. The ack
// of a frame travels back from the tail, so the client's last-frame ack
// means the whole chain holds the block. This moves the (R-1)×B bytes
// of replication traffic off the client's uplink and onto
// provider-to-provider links. A put to one provider is a chain of one.
//
// # Wire format
//
// All payloads use the package wire codec (big-endian, length-prefixed
// strings and byte slices). A block key serializes as
// blob u64 | nonce u64 | seq u32. The methods:
//
//	2 mGetBlock     request:  (key | off i64 | len i64)+,        response: count u32 per range, then that many
//	                          every len >= 0                               bytes per range (or status CodeNotFound)
//	4 mDeleteWrite  request:  blob u64 | nonce u64               response: deleted u32
//	5 mDeleteBlock  request:  key                                response: empty
//	7 mPutChained   request:  key | transfer u64 |               response: empty (or status CodeChainFail)
//	                          chain stringslice |
//	                          off i64 | total i64 |
//	                          data bytes32
//	8 mBlockReport  request:  prefix string                      response: count u32 | key*
//	9 mReplicate    request:  key | targets stringslice          response: empty (or status CodeNotFound /
//	                                                                       CodeChainFail)
//	10 mGetNamed    request:  as mGetBlock                       response: as mGetBlock, with one more piece
//	                                                                       first: empty when the bytes follow, or
//	                                                                       dir string | dev u64 | ino u64 |
//	                                                                       count u32 per range, and no bytes
//
// Methods 1, 3 and 6 (whole-block put, presence check, storage stat)
// are retired and their numbers reserved: a provider answers them with
// the rpc layer's unknown-method error.
//
// mGetNamed is the get of a client on the provider's host: a store that
// names its files (store.FileNamer) answers by name, and the client reads
// the files itself; any other answers with the bytes.
//
// mBlockReport is the repair plane's inventory primitive: it enumerates
// the block keys the provider's store currently holds under prefix
// ("b" for all blocks). mReplicate pushes one locally stored block to
// the named target providers by reusing the chained data plane — the
// provider acts as the client of its own replica chain, so repair
// traffic stays provider-to-provider and inherits the chain's
// commit-on-tail-ack guarantees.
//
// # Chained uploads
//
// mPutChained's chain lists the replicas downstream of the receiver;
// each hop re-frames the payload with itself stripped (chain[1:]) and
// forwards to chain[0]. Frames are self-describing (off/total), so hops
// apply them in any arrival order, and a frame overlapping bytes its
// transfer already delivered is refused. A handler responds only after
// its local write and the downstream ack for the same frame both
// complete, and a hop commits its block only once every byte is both
// locally written and acked by the whole downstream chain — a failed
// chain never publishes the block anywhere upstream of the failure.
// Any error surfaces to the client as CodeChainFail, the signal to fall
// back to one one-hop put per replica.
//
// Every call of Client.PutChained is one transfer, named by a random
// 64-bit id that each of its frames carries and each hop forwards. A
// provider takes a frame unless its write was garbage-collected here
// (DeleteWrite) or its transfer failed, was reaped or was superseded
// here; the refusal says which. A new transfer of a key supersedes a
// live upload of another (a key's bytes never change). A dead
// transfer's tombstone refuses its stragglers for two upload TTLs, so
// a frame of a reaped upload is not acked, while a re-sent block, a
// fresh transfer, is taken. Service.BreakChain (a broken downstream
// link) refuses every frame to forward; a one-hop put gets through.
//
// An upload record (one per transfer in flight here) is recycled, and
// so is its block writer, so a put allocates what it stores and no
// record of its own. The record is held by the upload table while it is
// in it, and by each frame handler between admission and its return.
// The table's hold passes to whichever path takes the record out of the
// table: the frame that commits the block, a failed transfer, the
// reaper, a DeleteWrite or a superseding transfer. Each drops it once it
// has finished or failed the upload, and the last hold dropped returns
// the record to the service's free list, where the next transfer's
// first frame takes it. A frame handler that holds a record therefore
// never sees it reused under it; a stale one would, and panics on the
// transfer id that no longer matches (under wire.PoisonReleased a
// released record is scribbled over at once, so it fails before reuse).
package provider

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"blobseer/internal/blob"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/util"
	"blobseer/internal/wire"
)

// RPC method numbers. Methods 1, 3 and 6 are retired; their numbers
// stay reserved.
const (
	_ uint16 = iota + 1
	mGetBlock
	_
	mDeleteWrite
	mDeleteBlock
	_
	mPutChained
	mBlockReport
	mReplicate
	mGetNamed
)

// CodeNotFound is the RPC status for a missing block.
const CodeNotFound uint16 = 10

// CodeChainFail is the RPC status for a chained put or replication push
// that failed at this hop or anywhere downstream; clients fall back to
// one one-hop put per replica.
const CodeChainFail uint16 = 11

// ErrBlockNotFound is returned when a requested block is absent.
var ErrBlockNotFound = rpc.CodedError(CodeNotFound, "provider: block not found")

// DefaultFrameSize is the streaming frame payload size of chained puts:
// large enough to amortize per-frame RPC overhead, small enough that a
// 64 MB block pipelines across chain hops instead of store-and-forward.
const DefaultFrameSize = 1 << 20

// chainHopTimeout bounds one downstream frame forward; a stuck hop
// must not pin handler goroutines past the client's patience.
const chainHopTimeout = 30 * time.Second

// uploadTTL is how long an in-flight upload may sit idle before the
// reaper aborts it (its writer died mid-chain). Tests shorten it.
var uploadTTL = time.Minute

// Service is the provider-side implementation.
type Service struct {
	store store.Store
	fwd   *Client // forwards chain frames downstream (WithForwarder)

	// Metrics are resolved once at construction so the data path never
	// touches the registry map.
	reg          *obs.Registry
	mBytesIn     *obs.Counter
	mBytesOut    *obs.Counter
	mGets        *obs.Counter
	mNamed       *obs.Counter
	mChainFrames *obs.Counter
	mCommits     *obs.Counter
	mFailed      *obs.Counter
	mReaps       *obs.Counter
	mReplicas    *obs.Counter
	mHopLatency  *obs.Histogram

	chainBroken atomic.Bool // test hook: refuse every frame to forward

	keyTexts  util.FreeList[[]byte]  // a get's scratch for its ranges' store keys
	uploadRec util.FreeList[*upload] // released upload records (package doc)

	mu      sync.Mutex
	uploads map[blob.BlockKey]*upload
	// reaper sweeps the upload table for stale uploads while it holds
	// any (sweeping): one timer per service, not one per upload.
	reaper   *time.Timer
	sweeping bool
	// deleted tombstones recently GC'd writes so straggler chain frames
	// (forwarded on detached contexts that outlive the client's RPC)
	// cannot re-create a block after DeleteWrite reclaimed it — that
	// block would be referenced by no metadata and its nonce GC already
	// ran, so nothing would ever delete it again.
	deleted tombstones[writeID]
	// dead tombstones recently failed, reaped and superseded transfers
	// so their frames still in the pipe are refused instead of being
	// acked into a fresh partial upload that never commits.
	dead tombstones[uint64]
}

// writeID names one write operation's blocks: every key of its blob and
// nonce, what DeleteWrite reclaims.
type writeID struct {
	blob  blob.ID
	nonce uint64
}

func writeOf(k blob.BlockKey) writeID { return writeID{k.Blob, k.Nonce} }

// upload tracks one in-flight chained block transfer. It is recycled
// once the last of its holds is dropped (package doc).
type upload struct {
	xfer       uint64       // the transfer whose frames it takes
	lastActive atomic.Int64 // unix nanos of the latest frame (stale sweep)
	holds      atomic.Int32 // the table's while it is in it, one per frame handler

	mu        sync.Mutex
	w         store.BlockWriter // nil once committed or aborted: the store's again
	total     int64
	spans     []span  // the frames written locally
	inline    [4]span // spans' backing for a block of up to four frames
	acked     int64   // bytes both written locally and acked downstream
	committed bool
	failed    bool
}

// span is a run [off, end) of an upload's bytes.
type span struct{ off, end int64 }

// poisonXfer is a released record's transfer id under
// wire.PoisonReleased: no frame's, so a stale holder's next use panics.
const poisonXfer = 0xdbdbdbdbdbdbdbdb

func (u *upload) touch() { u.lastActive.Store(time.Now().UnixNano()) }

func (u *upload) idle() time.Duration {
	return time.Since(time.Unix(0, u.lastActive.Load()))
}

// Option configures a Service.
type Option func(*Service)

// WithForwarder gives the provider the pool it forwards chain frames and
// replication pushes through; every deployed provider has one. A service
// built without it is the tail of any chain it takes part in: it fails
// a frame that names downstream replicas, and every Replicate, with
// CodeChainFail.
func WithForwarder(pool *rpc.Pool) Option {
	return func(s *Service) { s.fwd = NewClient(pool) }
}

// NewService returns a provider service over st.
func NewService(st store.Store, opts ...Option) *Service {
	s := &Service{
		store:   st,
		uploads: make(map[blob.BlockKey]*upload),
	}
	for _, o := range opts {
		o(s)
	}
	s.reg = obs.NewRegistry()
	s.mBytesIn = s.reg.Counter("bytes_in")
	s.mBytesOut = s.reg.Counter("bytes_out")
	s.mGets = s.reg.Counter("gets")
	s.mNamed = s.reg.Counter("gets_by_name")
	s.mChainFrames = s.reg.Counter("chain_frames")
	s.mCommits = s.reg.Counter("chain_commits")
	s.mFailed = s.reg.Counter("failed_uploads")
	s.mReaps = s.reg.Counter("stale_upload_reaps")
	s.mReplicas = s.reg.Counter("replicate_pushes")
	s.mHopLatency = s.reg.Histogram("chain_hop_latency")
	s.reg.GaugeFunc("uploads_inflight", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.uploads))
	})
	s.reg.GaugeFunc("store_items", func() int64 { return s.store.Stats().Items })
	s.reg.GaugeFunc("store_bytes", func() int64 { return s.store.Stats().Bytes })
	return s
}

// Metrics exposes the provider's registry (per-method counts, errors
// and latency, bytes in/out, chain frame and hop-latency stats,
// stale-upload sweeps, store occupancy) for HTTP export.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// BreakChain makes this provider refuse every frame it must forward, a
// broken downstream link (failure injection for tests: it forces
// clients onto the one-hop fallback puts, which it still takes).
func (s *Service) BreakChain(broken bool) { s.chainBroken.Store(broken) }

// Mux returns the RPC dispatch table for the service, metered on its
// registry.
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("provider", s.reg)
	// A lending store's get waits on nothing: its bytes go out as the
	// response's tails, on the connection's goroutine. A file store's
	// keeps a goroutine: its tails go by sendfile, which measured slower
	// inline.
	get := m.HandleFrame
	if _, ok := s.store.(store.Lender); ok {
		get = m.HandleInline
	}
	get(mGetBlock, "get_block", s.handleGetBlock)
	get(mGetNamed, "get_named", s.handleGetNamed)
	m.HandleFrame(mDeleteWrite, "delete_write", s.handleDeleteWrite)
	m.HandleFrame(mDeleteBlock, "delete_block", s.handleDeleteBlock)
	m.HandleFrame(mPutChained, "put_chained", s.handlePutChained)
	m.HandleFrame(mBlockReport, "block_report", s.handleBlockReport)
	m.HandleFrame(mReplicate, "replicate", s.handleReplicate)
	return m
}

// Store exposes the underlying store (tests, GC sweeps).
func (s *Service) Store() store.Store { return s.store }

func decodeKey(r *wire.Reader) blob.BlockKey {
	return blob.BlockKey{
		Blob:  blob.ID(r.U64()),
		Nonce: r.U64(),
		Seq:   r.U32(),
	}
}

func encodeKey(b *wire.Buffer, k blob.BlockKey) {
	b.U64(uint64(k.Blob))
	b.U64(k.Nonce)
	b.U32(k.Seq)
}

// rangeSize is the encoded size of one range of an mGetBlock request.
const rangeSize = 20 + 8 + 8

// maxGetBody bounds an mGetBlock response body, counts and pieces: it
// must fit one frame with its rpc headers.
const maxGetBody = wire.MaxFrameSize - 64

// decodeRange reads one range of an mGetBlock request; no length asks
// for more than a frame holds.
func decodeRange(r *wire.Reader) (key blob.BlockKey, off, length int64) {
	key = decodeKey(r)
	off = r.I64()
	return key, off, min(r.I64(), wire.MaxFrameSize)
}

// maxFileTails caps the files a get response holds open: its last ranges
// go out as file tails, any before them are read into the frame.
const maxFileTails = 16

// handleGetBlock serves every range of the request in one response and never
// copies their bytes into a slice of their own: a store that lends sends
// its own bytes as the response frame's tails, a file store its files,
// any other reads straight into the frame. Each range's store key is
// written into one recycled scratch, which the store keeps none of. A
// negative length is refused, and a missing block fails the whole
// request.
func (s *Service) handleGetBlock(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	return s.getBlock(payload, 0)
}

// getBlock answers an mGetBlock request with lead empty pieces first.
func (s *Service) getBlock(payload []byte, lead int) (*wire.Buffer, error) {
	k := len(payload) / rangeSize
	if k == 0 || len(payload) != k*rangeSize {
		return nil, fmt.Errorf("provider: a get request of %d bytes is not a list of %d-byte ranges", len(payload), rangeSize)
	}
	l, byRef := s.store.(store.Lender)
	fl, byFile := s.store.(store.FileLender)
	firstFile := k // the first range sent as a file tail
	if byFile {
		firstFile = max(0, k-maxFileTails)
	}
	size := int64(4 * (k + lead)) // the counts and the ranges read into the frame
	for i, r := 0, wire.NewReader(payload); r.Remaining() > 0; i++ {
		_, _, length := decodeRange(r)
		if length < 0 {
			return nil, fmt.Errorf("provider: a get range of negative length %d", length)
		}
		if !byRef && i < firstFile {
			size += length
		}
	}
	if size > maxGetBody {
		return nil, fmt.Errorf("provider: a get of %d ranges asks for %d bytes, more than a frame holds", k, size)
	}
	f := rpc.NewFrame(int(size))
	clear(f.Extend(4 * (k + lead))) // the counts, filled in as the pieces come
	name, _ := s.keyTexts.Get()
	defer func() { s.keyTexts.Put(name) }()
	var sent int64
	r := wire.NewReader(payload)
	for i := 0; i < k; i++ {
		key, off, length := decodeRange(r)
		name = key.AppendText(name[:0])
		var n int
		var err error
		if byRef {
			var data []byte
			data, err = l.Lend(name, off, length)
			f.Attach(data)
			n = len(data)
		} else if i >= firstFile {
			file, m, ferr := fl.LendFile(name, off, length)
			if err = ferr; err == nil {
				f.AttachFile(file, max(off, 0), m)
			}
			n = int(m)
		} else {
			n, err = s.store.ReadAt(name, f.Extend(int(length)), off)
			f.Truncate(f.Len() - int(length) + n)
		}
		if err == nil && sent+int64(n) > maxGetBody-int64(4*(k+lead)) {
			err = fmt.Errorf("provider: a get of %d ranges would send more than a frame holds", k)
		}
		if err != nil {
			f.Release()
			if err == store.ErrNotFound {
				err = ErrBlockNotFound
			}
			return nil, err
		}
		binary.BigEndian.PutUint32(f.Bytes()[4*(lead+i):], uint32(n))
		sent += int64(n)
	}
	s.mGets.Add(int64(k))
	s.mBytesOut.Add(sent)
	return f, nil
}

// maxNamedDir bounds the directory a by-name answer names, so that the
// client's buffer for the answer is small: a provider whose directory is
// longer answers with the bytes.
const maxNamedDir = 1024

// handleGetNamed answers mGetNamed: by name off a store that keeps its
// blocks in files, else as mGetBlock, behind an empty first piece. A
// missing block fails the whole request, as it fails mGetBlock.
func (s *Service) handleGetNamed(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	fn, ok := s.store.(store.FileNamer)
	if !ok {
		return s.getBlock(payload, 1)
	}
	dir, dev, ino := fn.Dir()
	k := len(payload) / rangeSize
	if k == 0 || len(payload) != k*rangeSize || len(dir) > maxNamedDir {
		return s.getBlock(payload, 1) // which refuses a malformed request
	}
	reply := 4 + len(dir) + 16 + 4*k
	f := rpc.NewFrame(4*(k+1) + reply)
	f.U32(uint32(reply))
	clear(f.Extend(4 * k))
	f.String(dir)
	f.U64(dev)
	f.U64(ino)
	name, _ := s.keyTexts.Get()
	defer func() { s.keyTexts.Put(name) }()
	for r := wire.NewReader(payload); r.Remaining() > 0; {
		key, off, length := decodeRange(r)
		name = key.AppendText(name[:0])
		size, err := fn.Size(name)
		if err == nil && length < 0 {
			err = fmt.Errorf("provider: a get range of negative length %d", length)
		}
		if err != nil {
			f.Release()
			if err == store.ErrNotFound {
				err = ErrBlockNotFound
			}
			return nil, err
		}
		f.U32(uint32(max(0, min(length, size-max(off, 0)))))
	}
	s.mGets.Add(int64(k))
	s.mNamed.Add(int64(k))
	return f, nil
}

func (s *Service) handlePutChained(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	xfer := r.U64()
	chain := r.StringSlice()
	ck := r.Chunk()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.putFrame(ctx, key, xfer, chain, ck); err != nil {
		// A doomed frame dooms its transfer, and whatever frames of it
		// already landed here.
		s.failTransfer(key, xfer)
		if rpc.CodeOf(err) == CodeChainFail {
			return nil, err // keep the downstream hop's detail
		}
		return nil, rpc.CodedError(CodeChainFail, fmt.Sprintf("provider: chained put %s: %v", key, err))
	}
	return nil, nil
}

// putFrame writes one frame of transfer xfer here while forwarding it
// down the chain, and commits the block once every byte is both written
// here and acked downstream. It first refuses a frame no transfer could
// bring: one to forward through a broken link or without a forwarder,
// or one outside its block. The Total cap keeps a tiny frame claiming a
// huge Total from forcing an Off-sized allocation or sparse file; a
// block fits one wire frame, as a whole-block get response must.
func (s *Service) putFrame(ctx context.Context, key blob.BlockKey, xfer uint64, chain []string, ck wire.Chunk) error {
	switch {
	case len(chain) > 0 && s.chainBroken.Load():
		return errors.New("chain broken (injected)")
	case len(chain) > 0 && s.fwd == nil:
		return errors.New("no forwarder for downstream chain")
	case ck.Off < 0 || len(ck.Data) == 0 || ck.Total > wire.MaxFrameSize || ck.Off+int64(len(ck.Data)) > ck.Total:
		return fmt.Errorf("bad chain frame: off %d len %d total %d", ck.Off, len(ck.Data), ck.Total)
	}
	u, err := s.admit(key, xfer, ck.Total)
	if err != nil {
		return err
	}
	defer s.release(u)
	// Forward downstream concurrently with the local write; the frame's
	// ack requires both, so acks propagate back from the chain tail. The
	// forwarded frame's tail aliases the request, which rpc keeps until
	// the handler returns.
	var fwd chan error // nil at the tail of a chain: nothing to wait for
	if len(chain) > 0 {
		done := make(chan error, 1)
		fwd = done
		go func() {
			// Derive from the handler ctx so the hop inherits the trace
			// context; the inbound ctx carries no cancellation, so the
			// hop timeout is still the only deadline.
			ctx, cancel := context.WithTimeout(ctx, chainHopTimeout)
			defer cancel()
			t0 := time.Now()
			err := s.fwd.putChainFrame(ctx, chain[0], key, xfer, chain[1:], ck)
			s.mHopLatency.ObserveSince(t0)
			done <- err
		}()
	}
	s.mChainFrames.Inc()
	s.mBytesIn.Add(int64(len(ck.Data)))
	err = u.write(xfer, ck)
	if fwd != nil {
		if ferr := <-fwd; err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	// Gating the commit on the downstream acks (not just local bytes)
	// keeps a hop from publishing a block whose chain failed.
	return s.finishFrame(key, u, xfer, ck)
}

// admit returns the upload transfer xfer's frames of key land in, made
// by its first-arriving frame, under the package doc's admission rule:
// a superseded upload is failed and its transfer tombstoned. Admission
// and DeleteWrite both hold s.mu, so every live upload is in the table
// when a DeleteWrite sweeps it: none commits after its write's GC. The
// caller holds the upload until it calls release.
func (s *Service) admit(key blob.BlockKey, xfer uint64, total int64) (*upload, error) {
	s.mu.Lock()
	now := time.Now()
	if s.deleted.has(writeOf(key), now) {
		s.mu.Unlock()
		return nil, errors.New("its write was garbage-collected here")
	}
	if s.dead.has(xfer, now) {
		s.mu.Unlock()
		return nil, fmt.Errorf("transfer %016x failed, was reaped or was superseded here", xfer)
	}
	old := s.uploads[key]
	if old != nil && old.xfer == xfer {
		old.holds.Add(1)
		s.mu.Unlock()
		return old, nil
	}
	w, err := s.store.PutWriter(key.String())
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if old != nil {
		s.dead.bury(old.xfer, now)
	}
	u, ok := s.uploadRec.Get()
	if !ok {
		u = new(upload)
	}
	u.xfer, u.w, u.total = xfer, w, total
	u.spans, u.acked, u.committed, u.failed = u.inline[:0], 0, false, false
	u.lastActive.Store(now.UnixNano())
	u.holds.Store(2) // the table's and the caller's
	s.uploads[key] = u
	s.armReaperLocked()
	s.mu.Unlock()
	if old != nil {
		s.drop(old) // the table's hold on old passed to this path
		s.mFailed.Inc()
	}
	return u, nil
}

// release drops one hold on u. The last one returns the record to the
// free list; under wire.PoisonReleased it is scribbled over first, so
// that a stale holder fails at once.
func (s *Service) release(u *upload) {
	if u.holds.Add(-1) != 0 {
		return
	}
	u.mu.Lock()
	u.w = nil // committed or aborted already: the store's again
	if wire.Poisoning() {
		u.xfer, u.total, u.acked = poisonXfer, -1, -1
		u.failed, u.committed = true, true
		for i := range u.inline {
			u.inline[i] = span{-1, -1}
		}
		u.spans = nil
	}
	u.mu.Unlock()
	s.uploadRec.Put(u)
}

// drop fails u, which the caller has taken out of the upload table,
// and releases the table's hold on it.
func (s *Service) drop(u *upload) {
	u.fail()
	s.release(u)
}

// write stores one frame of transfer xfer in its upload here. The first
// frame written of a block of several has the writer make room for the
// whole block at once, where growing frame by frame would copy it.
func (u *upload) write(xfer uint64, ck wire.Chunk) error {
	u.touch()
	u.mu.Lock()
	defer u.mu.Unlock()
	u.mustBe(xfer)
	switch {
	case u.failed:
		return errors.New("upload already failed")
	case u.committed:
		return errors.New("frame after commit")
	case u.total != ck.Total:
		return fmt.Errorf("frame total %d does not match upload total %d", ck.Total, u.total)
	}
	if err := u.claim(ck.Off, ck.Off+int64(len(ck.Data))); err != nil {
		return err
	}
	if p, ok := u.w.(store.Presizer); ok && len(u.spans) == 1 && int64(len(ck.Data)) < u.total {
		p.Presize(u.total)
	}
	return u.w.WriteAt(ck.Data, ck.Off)
}

// mustBe panics unless u is transfer xfer's: a frame handler holds its
// upload, so a mismatch is a record released and reused under it.
// Caller holds u.mu.
func (u *upload) mustBe(xfer uint64) {
	if u.xfer != xfer {
		panic(fmt.Sprintf("provider: a frame of transfer %016x in a released upload record (now %016x)", xfer, u.xfer))
	}
}

// claim records [off, end) as written, refusing a range that overlaps
// bytes already written: a transfer's frames are disjoint, so once the
// acked bytes add up to the total, every byte of the block is there.
func (u *upload) claim(off, end int64) error {
	for _, sp := range u.spans {
		if off < sp.end && sp.off < end {
			return fmt.Errorf("frame [%d, %d) overlaps bytes already received", off, end)
		}
	}
	u.spans = append(u.spans, span{off, end})
	return nil
}

// finishFrame records that one frame of u's transfer is fully
// replicated (locally written and acked by the whole downstream chain)
// and commits the block once every byte is.
func (s *Service) finishFrame(key blob.BlockKey, u *upload, xfer uint64, ck wire.Chunk) error {
	complete, err := u.ack(xfer, int64(len(ck.Data)))
	if !complete {
		return err
	}
	s.mCommits.Inc()
	s.mu.Lock()
	mine := s.uploads[key] == u
	if mine {
		delete(s.uploads, key)
	}
	s.mu.Unlock()
	if mine {
		s.release(u) // the table's hold, passed to this path
	}
	return nil
}

// ack adds n acked bytes to transfer xfer's upload and commits the block
// once they are all of it, reporting whether this call did.
func (u *upload) ack(xfer uint64, n int64) (committed bool, err error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.mustBe(xfer)
	if u.failed {
		return false, errors.New("upload already failed")
	}
	u.acked += n
	if u.acked != u.total {
		return false, nil
	}
	w := u.w
	u.w = nil // spent, whether Commit succeeds or not
	if err := w.Commit(); err != nil {
		u.failed = true
		return false, err
	}
	u.committed = true
	return true, nil
}

// failTransfer tombstones the transfer, so its frames still in the pipe
// are refused, and aborts and forgets its upload here, if any.
func (s *Service) failTransfer(key blob.BlockKey, xfer uint64) {
	s.mu.Lock()
	s.dead.bury(xfer, time.Now())
	u := s.uploads[key]
	if u != nil && u.xfer == xfer {
		delete(s.uploads, key)
	} else {
		u = nil
	}
	s.mu.Unlock()
	if u != nil {
		s.drop(u)
		s.mFailed.Inc()
	}
}

// tombstones is a set of keys each buried for two upload TTLs: a map for
// the lookups, and the burials in time order beside it, so that pruning
// pops the expired ones off the front instead of scanning the map. Times
// are monotonic nanoseconds since epoch. The zero value is empty. Its
// owner holds s.mu.
type tombstones[K comparable] struct {
	at    map[K]int64
	order []burial[K] // oldest first; a key buried again stays in it twice
}

type burial[K comparable] struct {
	key K
	at  int64
}

// epoch is what tombstone times count from.
var epoch = time.Now()

func since(now time.Time) int64 { return int64(now.Sub(epoch)) }

// expired reports whether a tombstone dug at at no longer refuses at now.
func expired(at, now int64) bool { return now-at > int64(2*uploadTTL) }

// has reports whether k lies buried at now.
func (t *tombstones[K]) has(k K, now time.Time) bool {
	at, ok := t.at[k]
	return ok && !expired(at, since(now))
}

// bury tombstones k at now, which is no earlier than any burial before
// it, and forgets the expired ones.
func (t *tombstones[K]) bury(k K, now time.Time) {
	n := since(now)
	for len(t.order) > 0 && expired(t.order[0].at, n) {
		// A key buried again since keeps its newer time.
		if b := t.order[0]; t.at[b.key] == b.at {
			delete(t.at, b.key)
		}
		t.order = t.order[1:]
	}
	if t.at == nil {
		t.at = make(map[K]int64)
	}
	t.at[k] = n
	t.order = append(t.order, burial[K]{k, n})
}

// fail aborts the upload unless it has committed or failed already.
func (u *upload) fail() {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.committed || u.failed {
		return
	}
	u.failed = true
	u.w.Abort()
	u.w = nil
}

// armReaperLocked starts the stale-upload sweep unless it is running.
// Caller holds s.mu.
func (s *Service) armReaperLocked() {
	switch {
	case s.sweeping:
	case s.reaper == nil:
		s.reaper = time.AfterFunc(uploadTTL/2, s.reap)
	default:
		s.reaper.Reset(uploadTTL / 2)
	}
	s.sweeping = true
}

// reap aborts every upload idle for longer than uploadTTL: its writer
// died mid-chain (upstream crash, client gone), and the partial value
// must not pin a buffer or temp file forever, even on an otherwise idle
// provider. A long transfer over a slow link is never idle that long
// and is spared. The sweep runs every half TTL while uploads are in
// flight, so a stale one goes within one and a half TTLs. A reaped
// transfer is tombstoned: a frame of it that arrives later is refused,
// never acked into an upload that cannot complete.
func (s *Service) reap() {
	var stale []*upload
	s.mu.Lock()
	now := time.Now()
	for k, u := range s.uploads {
		if u.idle() > uploadTTL {
			delete(s.uploads, k)
			s.dead.bury(u.xfer, now)
			stale = append(stale, u)
		}
	}
	s.sweeping = len(s.uploads) > 0
	if s.sweeping {
		s.reaper.Reset(uploadTTL / 2)
	}
	s.mu.Unlock()
	for _, u := range stale {
		s.drop(u)
		s.mReaps.Inc()
	}
}

func (s *Service) handleDeleteWrite(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	w := writeID{blob: blob.ID(r.U64()), nonce: r.U64()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Tombstone the write and abort its in-flight uploads before
	// touching the store, so a chained frame still in the pipe can
	// neither finish an existing upload nor start a fresh one and
	// commit an unreferenced block after the GC.
	s.mu.Lock()
	s.deleted.bury(w, time.Now())
	var doomed []*upload
	for k, u := range s.uploads {
		if writeOf(k) == w {
			delete(s.uploads, k)
			doomed = append(doomed, u)
		}
	}
	s.mu.Unlock()
	for _, u := range doomed {
		s.drop(u)
	}
	n, err := s.store.DeletePrefix(blob.BlockKey{Blob: w.blob, Nonce: w.nonce}.WritePrefix())
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(4)
	b.U32(uint32(n))
	return b, nil
}

func (s *Service) handleDeleteBlock(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.store.Delete(key.String()); err != nil {
		return nil, err
	}
	return nil, nil
}

// handleBlockReport enumerates the block keys this provider holds.
// Keys that do not parse as block keys (foreign entries in a shared
// store) are skipped: the report's consumers reason in BlockKeys.
func (s *Service) handleBlockReport(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	prefix := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if prefix == "" {
		prefix = blob.KeyPrefix
	}
	keys, err := s.store.Keys(prefix)
	if err != nil {
		return nil, err
	}
	parsed := make([]blob.BlockKey, 0, len(keys))
	for _, k := range keys {
		if bk, err := blob.ParseBlockKey(k); err == nil {
			parsed = append(parsed, bk)
		}
	}
	b := rpc.NewFrame(4 + 20*len(parsed))
	b.U32(uint32(len(parsed)))
	for _, bk := range parsed {
		encodeKey(b, bk)
	}
	return b, nil
}

// handleReplicate pushes one locally stored block to the target
// providers, reusing the chained data plane (this provider is the
// chain's client). It is the repair executor's work primitive. A
// lending store lends the block it pushes, a file store reads it into a
// recycled buffer; only another store copies it.
func (s *Service) handleReplicate(ctx context.Context, payload []byte) (*wire.Buffer, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	targets := r.StringSlice()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, nil
	}
	if s.fwd == nil {
		return nil, rpc.CodedError(CodeChainFail, "provider: no forwarder for replication push")
	}
	name, _ := s.keyTexts.Get()
	name = key.AppendText(name[:0])
	var data, buf []byte
	var err error
	switch st := s.store.(type) {
	case store.Lender:
		data, err = st.Lend(name, 0, -1)
	case store.FileNamer:
		var n int64
		if n, err = st.Size(name); err == nil {
			buf = wire.GetBuf(int(n))[:n]
			_, err = s.store.ReadAt(name, buf, 0)
			data = buf
		}
	default:
		data, err = s.store.Get(string(name))
	}
	s.keyTexts.Put(name)
	defer wire.PutBuf(buf)
	if err == store.ErrNotFound {
		return nil, ErrBlockNotFound
	}
	if err != nil {
		return nil, err
	}
	s.mReplicas.Inc()
	s.mBytesOut.Add(int64(len(data)))
	// Keep the trace context from the inbound frame on the push.
	ctx, cancel := context.WithTimeout(ctx, chainHopTimeout)
	defer cancel()
	if err := s.fwd.PutChained(ctx, targets, key, data, 0); err != nil {
		if rpc.CodeOf(err) == CodeChainFail {
			return nil, err
		}
		return nil, rpc.CodedError(CodeChainFail, fmt.Sprintf("provider: replicate %s: %v", key, err))
	}
	return nil, nil
}

// Client talks to data providers. One Client serves calls to any number
// of providers through a shared connection pool. It gets from a provider
// on its own host by name (mGetNamed) until the provider answers with
// bytes, a check of its directory fails or a file of it is refused; from
// then on it asks that provider for bytes (mGetBlock).
type Client struct {
	pool *rpc.Pool

	mu   sync.Mutex
	dirs map[string]string // by provider address: its directory, checked, or "" for bytes
}

// NewClient returns a provider client over pool.
func NewClient(pool *rpc.Pool) *Client { return &Client{pool: pool, dirs: map[string]string{}} }

// Put stores one block on the provider at addr: a chained put down a
// chain of one.
func (c *Client) Put(ctx context.Context, addr string, key blob.BlockKey, data []byte) error {
	return c.PutChained(ctx, []string{addr}, key, data, 0)
}

// oneAttempt is the schedule of the small calls (Delete, BlockReport, ...),
// which go through rpc.Pool.Call on recycled frames: like the data path
// they are not retried here, their callers own replica failover.
var oneAttempt = rpc.Backoff{}

// chainWindow is how many frames of one block a client (or forwarding
// hop) keeps in flight: enough to hide per-hop latency without holding
// multiple spare copies of large blocks in transit buffers.
const chainWindow = 4

// PutChained streams one block along a replica chain as one transfer,
// named by a random id: the block is cut into frames of frameSize
// (DefaultFrameSize if <= 0) and pipelined to addrs[0], which persists
// them while forwarding to addrs[1:]. The call returns once every frame
// is acked by the whole chain — i.e. all replicas hold the block. Any
// chain failure surfaces as an error with code CodeChainFail; callers
// fall back to one one-hop PutChained per replica, each a fresh
// transfer that the failed one's tombstones do not refuse.
func (c *Client) PutChained(ctx context.Context, addrs []string, key blob.BlockKey, data []byte, frameSize int) error {
	if len(addrs) == 0 {
		return errors.New("provider: empty replica chain")
	}
	if len(data) == 0 {
		return errors.New("provider: empty block")
	}
	if frameSize <= 0 {
		frameSize = DefaultFrameSize
	}
	head, chain, xfer := addrs[0], addrs[1:], rand.Uint64()
	total := int64(len(data))
	if len(data) <= frameSize { // one frame (every stream block, every append): no window to run
		return c.putChainFrame(ctx, head, key, xfer, chain, wire.Chunk{Total: total, Data: data})
	}

	// A failed frame cancels the rest immediately: without this, a hung
	// hop would stall every remaining window round for a full timeout
	// each before the caller could fall back.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	frames := (len(data) + frameSize - 1) / frameSize
	return util.Windowed(frames, chainWindow, func(i int) error {
		off := i * frameSize
		ck := wire.Chunk{Off: int64(off), Total: total, Data: data[off:min(off+frameSize, len(data))]}
		err := c.putChainFrame(fctx, head, key, xfer, chain, ck)
		if err != nil {
			cancel()
		}
		return err
	})
}

// putChainFrame ships one frame of transfer xfer to addr, naming the
// replicas still downstream of it.
func (c *Client) putChainFrame(ctx context.Context, addr string, key blob.BlockKey, xfer uint64, chain []string, ck wire.Chunk) error {
	f := rpc.NewFrame(72)
	encodeKey(f, key)
	f.U64(xfer)
	f.StringSlice(chain)
	f.Chunk(ck)
	resp, err := c.pool.StartInto(ctx, addr, mPutChained, f).Wait()
	wire.PutBuf(resp)
	return err
}

// Get fetches up to length (>= 0) bytes at off within the block into a
// fresh slice: GetInto over a buffer of its own.
func (c *Client) Get(ctx context.Context, addr string, key blob.BlockKey, off, length int64) ([]byte, error) {
	dst := make([]byte, length)
	n, err := c.GetInto(ctx, addr, key, off, dst)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// GetInto fetches len(dst) bytes at off within the block into dst and
// returns how many the block had there (the rest of dst is untouched):
// GetRanges for one range.
func (c *Client) GetInto(ctx context.Context, addr string, key blob.BlockKey, off int64, dst []byte) (int, error) {
	rs := [1]Range{{Key: key, Off: off, Dst: dst}}
	err := c.GetRanges(ctx, addr, rs[:])
	return rs[0].N, err
}

// Range is one piece of a GetRanges call: the bytes at Off within block
// Key, as many as Dst holds, go into Dst, and N is set to how many the
// block had there (the rest of Dst is untouched).
type Range struct {
	Key blob.BlockKey
	Off int64
	Dst []byte
	N   int
}

// GetRanges fetches every range from the provider at addr, in one round
// trip as long as the ranges fit one response frame (more when they do
// not). The bytes go from the connection straight into each Dst, which is
// written only between call and return; on error the N are unspecified.
func (c *Client) GetRanges(ctx context.Context, addr string, rs []Range) error {
	for len(rs) > 0 {
		k := fitFrame(rs)
		call, named := c.startRanges(ctx, addr, rs[:k])
		if err := c.waitRanges(ctx, addr, call, named, rs[:k]); err != nil {
			return err
		}
		rs = rs[k:]
	}
	return nil
}

// StartRanges is GetRanges's send half: it sends the ranges to the
// provider at addr, one mGetBlock call per run of them that fits a
// response frame, and appends each started call to ps. Every one must be
// waited on; until its Wait returns, its ranges' Dst are the call's.
func (c *Client) StartRanges(ctx context.Context, addr string, rs []Range, ps []PendingGet) []PendingGet {
	for len(rs) > 0 {
		k := fitFrame(rs)
		call, named := c.startRanges(ctx, addr, rs[:k])
		ps = append(ps, PendingGet{c: c, ctx: ctx, addr: addr, call: call, named: named, rs: rs[:k]})
		rs = rs[k:]
	}
	return ps
}

// fitFrame returns how many of rs, at least one, one response frame holds.
func fitFrame(rs []Range) int {
	k, body := 1, 4+len(rs[0].Dst)
	for k < len(rs) && body+4+len(rs[k].Dst) <= maxGetBody {
		body += 4 + len(rs[k].Dst)
		k++
	}
	return k
}

// PendingGet is one get that has gone out (mGetBlock or mGetNamed): its
// ranges' bytes land in their Dst, and Wait sets their N.
type PendingGet struct {
	c     *Client
	ctx   context.Context
	addr  string
	call  rpc.Pending
	named []byte // an mGetNamed call's first piece; nil for mGetBlock
	rs    []Range
}

// Len returns how many ranges the call carries.
func (p PendingGet) Len() int { return len(p.rs) }

// Wait waits for the call's response and sets each range's N; on error
// the N are unspecified. Once it has returned, nothing writes to the Dst.
// An answer by name is read from the provider's files here, on the
// caller's goroutine.
func (p PendingGet) Wait() error { return p.c.waitRanges(p.ctx, p.addr, p.call, p.named, p.rs) }

// startRanges sends one get: the ranges in, a count per range and the
// pieces back, each piece landing in its range's Dst. A provider on this
// host is asked for mGetNamed, whose first piece lands in named.
func (c *Client) startRanges(ctx context.Context, addr string, rs []Range) (call rpc.Pending, named []byte) {
	var vec [17][]byte // on the stack: a 1 MB read of 64 KB blocks, and an answer by name
	dsts := vec[:0]
	c.mu.Lock()
	dir, seen := c.dirs[addr]
	c.mu.Unlock()
	m := mGetBlock
	if (dir != "" || !seen) && c.pool.SameHost(addr) {
		m, named = mGetNamed, wire.GetBuf(4+maxNamedDir+16+4*len(rs))
		dsts = append(dsts, named[:cap(named)])
	}
	f := rpc.NewFrame(rangeSize * len(rs))
	for _, r := range rs {
		encodeKey(f, r.Key)
		f.I64(r.Off)
		f.I64(int64(len(r.Dst)))
		dsts = append(dsts, r.Dst)
	}
	return c.pool.StartInto(ctx, addr, m, f, dsts...), named
}

// waitRanges waits for call, rs's get, and sets each range's N from the
// counts it answers with, or reads the ranges by name. (rs is a
// parameter of its own, not a field of the call's, so that a caller's
// ranges on its stack stay there.)
func (c *Client) waitRanges(ctx context.Context, addr string, call rpc.Pending, named []byte, rs []Range) error {
	defer wire.PutBuf(named)
	counts, err := call.Wait()
	if err != nil {
		return err
	}
	defer wire.PutBuf(counts)
	lead := 0
	if named != nil {
		if n := binary.BigEndian.Uint32(counts); n > 0 {
			return c.readNamed(ctx, addr, named[:n], rs)
		}
		c.mu.Lock()
		c.dirs[addr] = "" // it names no files: ask it for bytes from now on
		c.mu.Unlock()
		lead = 1
	}
	for i := range rs {
		rs[i].N = int(binary.BigEndian.Uint32(counts[4*(lead+i):]))
	}
	return nil
}

// readNamed reads rs from the files of the provider at addr, whose
// answer by name is reply. A file gone since the provider counted it is
// a missing block. Any other failure, of the answer, the check of its
// directory or a file, has the call asked again for bytes, as every
// later call to the provider is.
func (c *Client) readNamed(ctx context.Context, addr string, reply []byte, rs []Range) error {
	if dir, ok := c.checkDir(addr, reply, rs); ok {
		var keyRoom [64]byte
		var nameRoom [256]byte
		var err error
		for i := 0; i < len(rs) && err == nil; i++ {
			if r := &rs[i]; r.N > 0 {
				name := store.AppendFileName(nameRoom[:0], dir, r.Key.AppendText(keyRoom[:0]))
				err = store.ReadFileAt(name, r.Dst[:r.N], max(r.Off, 0))
			}
		}
		switch err {
		case nil:
			return nil
		case store.ErrNotFound:
			return ErrBlockNotFound
		}
	}
	c.mu.Lock()
	c.dirs[addr] = ""
	c.mu.Unlock()
	return c.GetRanges(ctx, addr, rs)
}

// checkDir parses reply, an answer by name from the provider at addr,
// and returns the directory to read rs from: the one reply names, once
// this host shows it with the identity reply gives it. The first answer
// is checked; a later one that names another directory is refused.
func (c *Client) checkDir(addr string, reply []byte, rs []Range) (string, bool) {
	dir, dev, ino, ok := parseNamed(reply, rs)
	c.mu.Lock()
	known, seen := c.dirs[addr]
	c.mu.Unlock()
	if !ok || seen {
		return known, ok && known == string(dir)
	}
	if hdev, hino, err := store.DirID(string(dir)); err != nil || hdev != dev || hino != ino {
		return "", false
	}
	c.mu.Lock()
	if _, seen = c.dirs[addr]; !seen {
		c.dirs[addr] = string(dir)
	}
	known = c.dirs[addr]
	c.mu.Unlock()
	return known, known == string(dir)
}

// parseNamed splits an answer by name into the provider's directory and
// its identity, and sets each range's N from its count. It refuses a
// directory that is not absolute and clean, and a count its range does
// not hold: a file read is then the directory's, named by a key's hex.
func parseNamed(reply []byte, rs []Range) (dir []byte, dev, ino uint64, ok bool) {
	r := wire.NewReader(reply)
	dir, dev, ino = r.Bytes32(), r.U64(), r.U64()
	fit := true
	for i := range rs {
		n := r.U32()
		fit = fit && int64(n) <= int64(len(rs[i].Dst))
		rs[i].N = int(n)
	}
	return dir, dev, ino, fit && r.Err() == nil && r.Remaining() == 0 && cleanAbs(dir)
}

// cleanAbs reports whether dir is absolute and clean, as filepath.Clean
// leaves it, and holds no NUL, which would end its name early.
func cleanAbs(dir []byte) bool {
	s := unsafe.String(unsafe.SliceData(dir), len(dir)) // a view, read here only
	return filepath.IsAbs(s) && filepath.Clean(s) == s && strings.IndexByte(s, 0) < 0
}

// DeleteWrite garbage-collects every block a write operation stored on
// the provider (identified by blob + nonce), returning the count.
func (c *Client) DeleteWrite(ctx context.Context, addr string, id blob.ID, nonce uint64) (n int, err error) {
	err = c.pool.Call(ctx, oneAttempt, addr, mDeleteWrite, 16, func(b *wire.Buffer) {
		b.U64(uint64(id))
		b.U64(nonce)
	}, func(p []byte) error {
		r := wire.NewReader(p)
		n = int(r.U32())
		return r.Err()
	})
	return n, err
}

// Delete removes one block (version garbage collection; deleting an
// absent block is not an error).
func (c *Client) Delete(ctx context.Context, addr string, key blob.BlockKey) error {
	return c.pool.Call(ctx, oneAttempt, addr, mDeleteBlock, 20, func(b *wire.Buffer) { encodeKey(b, key) }, nil)
}

// BlockReport enumerates the block keys the provider at addr holds
// under prefix ("" reports every block). This is the repair plane's
// inventory call: what a provider *actually* stores, not what was once
// allocated to it.
func (c *Client) BlockReport(ctx context.Context, addr, prefix string) (out []blob.BlockKey, err error) {
	err = c.pool.Call(ctx, oneAttempt, addr, mBlockReport, 8+len(prefix), func(b *wire.Buffer) { b.String(prefix) }, func(p []byte) error {
		r := wire.NewReader(p)
		n := r.U32()
		if r.Err() != nil || int(n) > r.Remaining()/20+1 { // each key is 20 bytes
			return fmt.Errorf("provider: malformed block report from %s", addr)
		}
		out = make([]blob.BlockKey, 0, n)
		for i := uint32(0); i < n; i++ {
			out = append(out, decodeKey(r))
		}
		return r.Err()
	})
	return out, err
}

// Replicate asks the provider at addr to push its copy of the block to
// the target providers over the chained data plane. The call returns
// once every target holds the block.
func (c *Client) Replicate(ctx context.Context, addr string, key blob.BlockKey, targets []string) error {
	return c.pool.Call(ctx, oneAttempt, addr, mReplicate, 32, func(b *wire.Buffer) {
		encodeKey(b, key)
		b.StringSlice(targets)
	}, nil)
}
