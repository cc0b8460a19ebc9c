package vmanager

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// RPC method numbers.
const (
	mCreateBlob uint16 = iota + 1
	// 2 (GetMeta) is retired: the head of every mLatest reply carries the meta.
	_
	mAssignVersion
	mCommit
	mAbort
	mLatest
	// 7 (VersionInfo) is retired: the head carries the size at the version asked for.
	// 8 (History) is retired: a blob's history pages through mLatest.
	_
	_
	mWaitPublished
	mListBlobs
	mPrune
	// 12 (PrunedBelow) is retired: the head carries the prune point.
	// 13 and 14 are retired: the log compacts itself (wal.Log.Compact).
	_
	_
	_
	mRelocate
	mReplicas
)

// OpCounts is the per-operation dispatch breakdown of one
// version-manager service, in RPC-method order. In a sharded
// deployment each shard keeps its own counts, which is what makes
// shard imbalance (and shard-local routing) directly observable.
type OpCounts struct {
	Create int64
	Assign int64
	Commit int64
	Abort  int64
	Latest int64
	Wait   int64
	List   int64
	Prune  int64
}

// Total sums every per-op counter.
func (o OpCounts) Total() int64 {
	return o.Create + o.Assign + o.Commit + o.Abort + o.Latest + o.Wait + o.List + o.Prune
}

// Service is the RPC shell around State, plus the dead-writer janitor.
type Service struct {
	state *State
	reg   *obs.Registry

	stopJanitor chan struct{}
}

// NewService wraps state.
func NewService(state *State) *Service {
	return &Service{state: state, reg: obs.NewRegistry(), stopJanitor: make(chan struct{})}
}

// Metrics exposes the shard's registry (per-op latency histograms and
// dispatch counts; a durable node adds its WAL gauges) for HTTP export.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// State exposes the core (simulator, tests).
func (s *Service) State() *State { return s.state }

// Ops reports the dispatch count split by operation: the ops_* counters
// the Mux meters, each counted as its request reaches the handler.
func (s *Service) Ops() OpCounts {
	return OpCounts{
		Create: s.reg.Counter("ops_create").Value(),
		Assign: s.reg.Counter("ops_assign").Value(),
		Commit: s.reg.Counter("ops_commit").Value(),
		Abort:  s.reg.Counter("ops_abort").Value(),
		Latest: s.reg.Counter("ops_latest").Value(),
		Wait:   s.reg.Counter("ops_wait").Value(),
		List:   s.reg.Counter("ops_list").Value(),
		Prune:  s.reg.Counter("ops_prune").Value(),
	}
}

// StartJanitor aborts writes stuck in flight longer than maxAge,
// checking every interval. Stop with StopJanitor.
func (s *Service) StartJanitor(maxAge, interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopJanitor:
				return
			case <-t.C:
				for _, e := range s.state.Expired(maxAge) {
					// Best effort: a concurrent Commit may win the race.
					_ = s.state.Abort(e.Blob, e.Version)
				}
			}
		}
	}()
}

// StopJanitor terminates the janitor goroutine.
func (s *Service) StopJanitor() {
	select {
	case <-s.stopJanitor:
	default:
		close(s.stopJanitor)
	}
}

// Mux returns the RPC dispatch table, metered on the shard's registry.
// Reads wait on nothing and run inline (rpc's dispatch rule); so do the
// mutations of a shard without a log, and a durable shard's keep their
// handler goroutines, so that writers on one connection share an fsync.
// A wait blocks until its version publishes.
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("vmanager", s.reg)
	mutate := m.HandleInline
	if s.state.log != nil {
		mutate = m.HandleFrame
	}
	mutate(mCreateBlob, "create", s.handleCreate)
	mutate(mAssignVersion, "assign", s.handleAssign)
	mutate(mCommit, "commit", s.handleCommit)
	mutate(mAbort, "abort", s.handleAbort)
	m.HandleInline(mLatest, "latest", s.handleLatest)
	m.HandleFrame(mWaitPublished, "wait", s.handleWait)
	m.HandleInline(mListBlobs, "list", s.handleListBlobs)
	mutate(mPrune, "prune", s.handlePrune)
	mutate(mRelocate, "relocate", s.handleRelocate)
	m.HandleInline(mReplicas, "replicas", s.handleReplicas)
	return m
}

func (s *Service) handleRelocate(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	moves, err := decodeMoves(r, id, &s.state.placements)
	if err != nil {
		return nil, err
	}
	return nil, s.state.Relocate(id, moves)
}

func (s *Service) handleReplicas(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	key := blob.BlockKey{Blob: blob.ID(r.U64()), Nonce: r.U64(), Seq: r.U32()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	addrs, err := s.state.Replicas(key)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64)
	b.StringSlice(addrs)
	return b, nil
}

func (s *Service) handleCreate(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	blockSize := r.I64()
	replication := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m, err := s.state.CreateBlob(blockSize, replication)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(8)
	b.U64(uint64(m.ID))
	return b, nil
}

func (s *Service) handleAssign(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	kind := blob.WriteKind(r.U8())
	off := r.I64()
	size := r.I64()
	nonce := r.U64()
	since, base := blob.Version(r.U64()), blob.Version(r.U64())
	var buf [8]string // a one-block write's placement, on the stack
	replicas := buf[:0]
	for i, n := uint32(0), r.U32(); i < n && r.Err() == nil; i++ {
		if a := r.Bytes32(); len(a) > 0 {
			replicas = append(replicas, s.state.placements.addr(a))
		} else if r.Err() == nil {
			return nil, errAddrTable
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	a, err := s.state.Assign(id, kind, off, size, nonce, since, base, replicas...)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64 + 8*len(replicas))
	b.U64(uint64(a.Version))
	b.I64(a.Off)
	b.I64(a.Size)
	encodeDescs(b, a.Descs)
	return b, nil
}

func (s *Service) handleCommit(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	v := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.state.Commit(id, v)
}

func (s *Service) handleAbort(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	v := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.state.Abort(id, v)
}

// headReply is the reply of mLatest and mWaitPublished, whose requests
// name the blob, the version the caller's history reaches (since) and
// the version whose size it asks (at).
func (s *Service) headReply(id blob.ID, since, at blob.Version) (*wire.Buffer, error) {
	h, descs, err := s.state.LatestSince(id, since, at)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(headWireSize + 8 + len(descs)*(descWireSize+4*h.Meta.Replication))
	encodeHead(b, h, descs)
	return b, nil
}

// encodeHead writes the head, then the page of descriptors.
func encodeHead(b *wire.Buffer, h Head, descs []blob.WriteDesc) {
	b.I64(h.Meta.BlockSize)
	b.U32(uint32(h.Meta.Replication))
	b.U64(uint64(h.Published))
	b.U64(uint64(h.Oldest))
	b.I64(h.Size)
	encodeDescs(b, descs)
}

// headWireSize is what encodeHead writes before the descriptors.
const headWireSize = 8 + 4 + 8 + 8 + 8

func (s *Service) handleLatest(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id, since, at := blob.ID(r.U64()), blob.Version(r.U64()), blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s.headReply(id, since, at)
}

func (s *Service) handleWait(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id, since, at := blob.ID(r.U64()), blob.Version(r.U64()), blob.Version(r.U64())
	timeoutMs := r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.state.WaitPublished(id, at, time.Duration(timeoutMs)*time.Millisecond); err != nil {
		return nil, err
	}
	return s.headReply(id, since, at)
}

func (s *Service) handleListBlobs(ctx context.Context, p []byte) (*wire.Buffer, error) {
	ids := s.state.Blobs()
	b := rpc.NewFrame(4 + len(ids)*8)
	b.U32(uint32(len(ids)))
	for _, id := range ids {
		b.U64(uint64(id))
	}
	return b, nil
}

func (s *Service) handlePrune(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	keep := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	from, err := s.state.Prune(id, keep)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(8)
	b.U64(uint64(from))
	return b, nil
}

// Client is the version-manager RPC client over the K >= 1 shard
// services of a deployment. Every per-blob call goes to the shard that
// owns the blob — addrs[ShardOf(id, K)], the same rule the shards mint
// by — so a write to blob X touches exactly one shard service;
// CreateBlob round-robins (any shard can mint; IDs never collide
// because each shard mints its own residue class mod K). There is no
// routing table: the shard count and the ID are the route, and a
// single-address client is simply the K=1 case. Safe for concurrent
// use.
type Client struct {
	pool  *rpc.Pool
	addrs []string // shard k's endpoint at index k
	retry rpc.Backoff
	next  atomic.Uint64 // round-robin cursor for CreateBlob

	placements interner // the placements of the descriptors it decodes, shared
}

// NewClient returns a client for the version-manager shard services at
// addrs, in shard-index order (addrs[k] must be shard k of len(addrs);
// one address is the classic unsharded manager). Calls retry
// transport-classified failures with rpc.DefaultBackoff, so a
// version-manager crash-restart cycle is invisible to callers
// (Publish/Commit is idempotent; a retried AssignVersion whose first
// response was lost leaks an in-flight version for the janitor).
func NewClient(pool *rpc.Pool, addrs ...string) *Client {
	if len(addrs) == 0 {
		panic("vmanager: NewClient with no shard addresses")
	}
	return &Client{pool: pool, addrs: addrs, retry: rpc.DefaultBackoff}
}

// SetRetry overrides the client's retry schedule (chaos tests widen it,
// latency-sensitive callers shrink it).
func (c *Client) SetRetry(b rpc.Backoff) { c.retry = b }

// call issues one RPC to shard k (see rpc.Pool.Call for enc and dec).
func (c *Client) call(ctx context.Context, k int, m uint16, size int, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, c.retry, c.addrs[k], m, size, enc, dec)
}

// callBlob issues one RPC to the shard owning id; most requests are
// the blob ID and at most one more word.
func (c *Client) callBlob(ctx context.Context, id blob.ID, m uint16, dec func([]byte) error, args ...uint64) error {
	return c.call(ctx, ShardOf(id, len(c.addrs)), m, 16, func(b *wire.Buffer) {
		b.U64(uint64(id))
		for _, a := range args {
			b.U64(a)
		}
	}, dec)
}

// CreateBlob allocates a new blob on the next shard in round-robin
// order, spreading unrelated blobs across the control plane.
func (c *Client) CreateBlob(ctx context.Context, blockSize int64, replication int) (blob.Meta, error) {
	m := blob.Meta{BlockSize: blockSize, Replication: replication}
	k := int((c.next.Add(1) - 1) % uint64(len(c.addrs)))
	err := c.call(ctx, k, mCreateBlob, 12, func(b *wire.Buffer) {
		b.I64(blockSize)
		b.U32(uint32(replication))
	}, func(p []byte) error {
		r := wire.NewReader(p)
		m.ID = blob.ID(r.U64())
		return r.Err()
	})
	if err != nil {
		return blob.Meta{}, err
	}
	return m, nil
}

// AssignVersion is Assign without a base, its descriptors in a vector
// of their own.
func (c *Client) AssignVersion(ctx context.Context, id blob.ID, kind blob.WriteKind, off, size int64, nonce uint64, since blob.Version, replicas ...string) (Assignment, error) {
	return c.Assign(ctx, id, kind, off, size, nonce, since, blob.NoVersion, nil, replicas...)
}

// Assign requests a version number for a prepared write whose
// blocks are stored on replicas, block i's at [i*R, (i+1)*R) at the
// blob's replication R, primary first; an append onto an unaligned end
// names its base (see State.Assign). The reply's descriptors are
// decoded into descs[:0], grown if it is too short (nil gets a vector
// of their own): a caller that passes its vector back call after call
// gets Assignment.Descs in it, valid until it passes it again.
func (c *Client) Assign(ctx context.Context, id blob.ID, kind blob.WriteKind, off, size int64, nonce uint64, since, base blob.Version, descs []blob.WriteDesc, replicas ...string) (Assignment, error) {
	var a Assignment
	n := 60
	for _, r := range replicas {
		n += 4 + len(r)
	}
	err := c.call(ctx, ShardOf(id, len(c.addrs)), mAssignVersion, n, func(b *wire.Buffer) {
		b.U64(uint64(id))
		b.U8(uint8(kind))
		b.I64(off)
		b.I64(size)
		b.U64(nonce)
		b.U64(uint64(since))
		b.U64(uint64(base))
		b.U32(uint32(len(replicas)))
		for _, a := range replicas {
			b.String(a)
		}
	}, func(p []byte) (err error) {
		a, err = decodeAssignment(p, &c.placements, descs)
		return err
	})
	if err != nil {
		return Assignment{}, err
	}
	return a, nil
}

// decodeAssignment decodes an AssignVersion reply, its descriptors into
// descs[:0] and their placements interned in in.
func decodeAssignment(p []byte, in *interner, descs []blob.WriteDesc) (Assignment, error) {
	r := wire.NewReader(p)
	a := Assignment{Version: blob.Version(r.U64()), Off: r.I64(), Size: r.I64()}
	var err error
	a.Descs, err = decodeDescs(r, in, descs)
	return a, err
}

// Commit reports a completed write.
func (c *Client) Commit(ctx context.Context, id blob.ID, v blob.Version) error {
	return c.callBlob(ctx, id, mCommit, nil, uint64(v))
}

// Abort reports a failed write.
func (c *Client) Abort(ctx context.Context, id blob.ID, v blob.Version) error {
	return c.callBlob(ctx, id, mAbort, nil, uint64(v))
}

// Latest returns the blob's head: its meta, published version, prune
// point and size.
func (c *Client) Latest(ctx context.Context, id blob.ID) (Head, error) {
	return c.LatestSince(ctx, id, 0, blob.NoVersion, nil)
}

// LatestSince returns the blob's head, with the size at version at (at
// the published version when at is NoVersion or unpublished), and hands
// page the same head and the descriptors of (since, published], a
// reply's page of at most latestDescsCap at a time: it asks again from
// the last version it got, up to the version its first reply published,
// so writers that keep publishing cannot keep it asking. A nil page
// asks for the head alone; an error from page ends the call. It is the
// one read of a blob's state and history.
func (c *Client) LatestSince(ctx context.Context, id blob.ID, since, at blob.Version, page func(Head, []blob.WriteDesc) error) (Head, error) {
	return c.pages(ctx, mLatest, id, since, at, 0, page)
}

// WaitPublished is LatestSince once version at is published: it blocks
// until then or until timeout passes (timeout <= 0 waits forever),
// which it reports as ErrTimeout. The wait blocks server-side by
// design, so it is exempted from the per-call I/O deadline; if the
// manager restarts mid-wait the retry in call re-issues it, re-arming
// the waiter on the recovered state.
func (c *Client) WaitPublished(ctx context.Context, id blob.ID, since, at blob.Version, timeout time.Duration, page func(Head, []blob.WriteDesc) error) (Head, error) {
	return c.pages(ctx, mWaitPublished, id, since, at, timeout, page)
}

// pages is LatestSince whose first call is method m: mLatest, or
// mWaitPublished with its timeout.
func (c *Client) pages(ctx context.Context, m uint16, id blob.ID, since, at blob.Version, timeout time.Duration, page func(Head, []blob.WriteDesc) error) (h Head, err error) {
	if page == nil {
		since = ^blob.Version(0)
	}
	for first := true; first || since < h.Published; first = false {
		var descs []blob.WriteDesc
		dec := func(p []byte) (err error) {
			hd, ds, err := decodeHead(p, &c.placements)
			if first {
				h = hd
				h.Meta.ID = id
			}
			descs = ds
			return err
		}
		if first && m == mWaitPublished {
			err = c.callBlob(rpc.NoTimeout(ctx), id, m, dec, uint64(since), uint64(at), uint64(timeout/time.Millisecond))
		} else {
			err = c.callBlob(ctx, id, mLatest, dec, uint64(since), uint64(at))
		}
		if err != nil {
			return Head{}, err
		}
		if since >= h.Published || len(descs) == 0 {
			break
		}
		descs = descs[:min(uint64(len(descs)), uint64(h.Published-since))] // none published after the first reply
		if err := page(h, descs); err != nil {
			return Head{}, err
		}
		since += blob.Version(len(descs))
	}
	return h, nil
}

// decodeHead reads what encodeHead wrote: an mLatest or mWaitPublished
// reply, its placements interned in in.
func decodeHead(p []byte, in *interner) (h Head, descs []blob.WriteDesc, err error) {
	r := wire.NewReader(p)
	h.Meta = blob.Meta{BlockSize: r.I64(), Replication: int(r.U32())}
	h.Published, h.Oldest, h.Size = blob.Version(r.U64()), blob.Version(r.U64()), r.I64()
	descs, err = decodeDescs(r, in, nil)
	return h, descs, err
}

// ListBlobs returns all blob IDs, merging every shard's list into
// ascending ID order.
func (c *Client) ListBlobs(ctx context.Context) ([]blob.ID, error) {
	var out []blob.ID
	for k := range c.addrs {
		err := c.call(ctx, k, mListBlobs, 0, nil, func(p []byte) error {
			r := wire.NewReader(p)
			n := r.U32()
			out = slices.Grow(out, int(min(n, uint32(r.Remaining()/8))))
			for i := uint32(0); i < n && r.Err() == nil; i++ {
				out = append(out, blob.ID(r.U64()))
			}
			return r.Err()
		})
		if err != nil {
			return nil, err
		}
	}
	slices.Sort(out)
	return out, nil
}

// Relocate amends the placements of published writes of blob id by
// moves (see State.Relocate).
func (c *Client) Relocate(ctx context.Context, id blob.ID, moves []Move) error {
	return c.call(ctx, ShardOf(id, len(c.addrs)), mRelocate, 12+64*len(moves), func(b *wire.Buffer) {
		b.U64(uint64(id))
		encodeMoves(b, moves)
	}, nil)
}

// Replicas returns the replica addresses of the block key names, primary
// first, as relocations left them (see State.Replicas).
func (c *Client) Replicas(ctx context.Context, key blob.BlockKey) ([]string, error) {
	var addrs []string
	err := c.call(ctx, ShardOf(key.Blob, len(c.addrs)), mReplicas, 20, func(b *wire.Buffer) {
		b.U64(uint64(key.Blob))
		b.U64(key.Nonce)
		b.U32(key.Seq)
	}, func(p []byte) error {
		r := wire.NewReader(p)
		addrs = r.StringSlice()
		return r.Err()
	})
	return addrs, err
}

// versionReply decodes a response that is one version number.
func versionReply(v *blob.Version) func([]byte) error {
	return func(p []byte) error {
		r := wire.NewReader(p)
		*v = blob.Version(r.U64())
		return r.Err()
	}
}

// Prune advances the oldest readable version to keep, returning the
// previous prune point (see State.Prune).
func (c *Client) Prune(ctx context.Context, id blob.ID, keep blob.Version) (from blob.Version, err error) {
	err = c.callBlob(ctx, id, mPrune, versionReply(&from), uint64(keep))
	return from, err
}
