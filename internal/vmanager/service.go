package vmanager

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/metrics"
	"blobseer/internal/rpc"
	"blobseer/internal/wal"
	"blobseer/internal/wire"
)

// RPC method numbers.
const (
	mCreateBlob uint16 = iota + 1
	mGetMeta
	mAssignVersion
	mCommit
	mAbort
	mLatest
	mVersionInfo
	mHistory
	mWaitPublished
	mListBlobs
	mPrune
	mPrunedBelow
	mWALStatus
	mForceSnapshot
)

// RPC status codes for the sentinel errors.
const (
	CodeUnknownBlob uint16 = 20 + iota
	CodeUnaligned
	CodeBadRange
	CodeBadVersion
	CodeTimeout
	CodePruned
	CodeBadPrune
)

func codeFor(err error) uint16 {
	switch {
	case errors.Is(err, ErrUnknownBlob):
		return CodeUnknownBlob
	case errors.Is(err, ErrUnaligned):
		return CodeUnaligned
	case errors.Is(err, ErrBadRange):
		return CodeBadRange
	case errors.Is(err, ErrBadVersion):
		return CodeBadVersion
	case errors.Is(err, ErrTimeout):
		return CodeTimeout
	case errors.Is(err, ErrPruned):
		return CodePruned
	case errors.Is(err, ErrBadPrune):
		return CodeBadPrune
	default:
		return rpc.StatusError
	}
}

func wrap(err error) error {
	if err == nil {
		return nil
	}
	return rpc.CodedError(codeFor(err), err.Error())
}

// errFromCode converts an RPC error back to the matching sentinel so
// client-side errors.Is checks work across the wire.
func errFromCode(err error) error {
	if err == nil {
		return nil
	}
	switch rpc.CodeOf(err) {
	case CodeUnknownBlob:
		return ErrUnknownBlob
	case CodeUnaligned:
		return ErrUnaligned
	case CodeBadRange:
		return ErrBadRange
	case CodeBadVersion:
		return ErrBadVersion
	case CodeTimeout:
		return ErrTimeout
	case CodePruned:
		return ErrPruned
	case CodeBadPrune:
		return ErrBadPrune
	default:
		return err
	}
}

// MetadataRepairer returns a Repairer that rebuilds an aborted
// version's tree over st with empty block references: reads of the
// aborted range resolve to leaves with no providers and are zero-filled
// (the aborted writer's data was never defined).
func MetadataRepairer(st mdtree.Store) Repairer {
	return func(meta blob.Meta, hist *blob.History, v blob.Version) error {
		d, ok := hist.Desc(v)
		if !ok {
			return ErrBadVersion
		}
		n := blob.Blocks(d.Len, meta.BlockSize)
		refs := make([]mdtree.BlockRef, n)
		for i := range refs {
			ln := meta.BlockSize
			if int64(i) == n-1 {
				if rem := d.Len - int64(n-1)*meta.BlockSize; rem > 0 {
					ln = rem
				}
			}
			refs[i] = mdtree.BlockRef{
				Key: blob.BlockKey{Blob: meta.ID, Nonce: d.Nonce, Seq: uint32(i)},
				Len: ln,
			}
		}
		_, err := mdtree.Build(context.Background(), st, meta, hist, v, refs)
		return err
	}
}

// OpCounts is the per-operation dispatch breakdown of one
// version-manager service, in RPC-method order. In a sharded
// deployment each shard keeps its own counts, which is what makes
// shard imbalance (and shard-local routing) directly observable.
type OpCounts struct {
	Create      int64
	GetMeta     int64
	Assign      int64
	Commit      int64
	Abort       int64
	Latest      int64
	VersionInfo int64
	History     int64
	Wait        int64
	List        int64
	Prune       int64
	PrunedBelow int64
	WALStatus   int64
	Snapshot    int64
}

// Total sums every per-op counter (== Service.Calls()).
func (o OpCounts) Total() int64 {
	return o.Create + o.GetMeta + o.Assign + o.Commit + o.Abort + o.Latest +
		o.VersionInfo + o.History + o.Wait + o.List + o.Prune + o.PrunedBelow +
		o.WALStatus + o.Snapshot
}

// opNames maps RPC method numbers to metric-name suffixes.
var opNames = [mForceSnapshot]string{
	"create", "get_meta", "assign", "commit", "abort", "latest",
	"version_info", "history", "wait", "list", "prune", "pruned_below",
	"wal_status", "force_snapshot",
}

// MethodName maps an RPC method number to its operation name, for the
// server-side tracer.
func MethodName(m uint16) string {
	if m >= 1 && m <= mForceSnapshot {
		return opNames[m-1]
	}
	return "unknown"
}

// Service is the RPC shell around State, plus the dead-writer janitor.
type Service struct {
	state *State
	calls atomic.Int64
	ops   [mForceSnapshot]atomic.Int64 // indexed by RPC method - 1

	reg       *metrics.Registry
	opLatency [mForceSnapshot]*metrics.Histogram

	stopJanitor chan struct{}
}

// NewService wraps state.
func NewService(state *State) *Service {
	s := &Service{state: state, stopJanitor: make(chan struct{})}
	s.reg = metrics.NewRegistry()
	for m := uint16(1); m <= mForceSnapshot; m++ {
		s.opLatency[m-1] = s.reg.Histogram("latency_" + opNames[m-1])
	}
	s.reg.GaugeFunc("rpc_calls", s.calls.Load)
	// WAL shape gauges: evaluated only at scrape time. A manager running
	// without a WAL reports zeros.
	walGauge := func(pick func(wal.Status) int64) func() int64 {
		return func() int64 {
			st, err := state.WALStatus()
			if err != nil {
				return 0
			}
			return pick(st)
		}
	}
	s.reg.GaugeFunc("wal_segments", walGauge(func(st wal.Status) int64 { return int64(st.Segments) }))
	s.reg.GaugeFunc("wal_log_bytes", walGauge(func(st wal.Status) int64 { return st.LogBytes }))
	s.reg.GaugeFunc("wal_records", walGauge(func(st wal.Status) int64 { return int64(st.Records) }))
	s.reg.GaugeFunc("wal_syncs", walGauge(func(st wal.Status) int64 { return int64(st.Syncs) }))
	s.reg.GaugeFunc("wal_last_sync_age_ms", walGauge(func(st wal.Status) int64 {
		if st.LastSyncUnix == 0 {
			return 0
		}
		return time.Now().UnixMilli() - st.LastSyncUnix*1000
	}))
	s.reg.GaugeFunc("wal_unsnapshotted", walGauge(func(st wal.Status) int64 {
		return int64(st.LastSeq - st.SnapshotSeq)
	}))
	return s
}

// Metrics exposes the shard's registry (per-op latency histograms,
// dispatch counts, WAL group-commit gauges) for HTTP export.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// State exposes the core (simulator, tests).
func (s *Service) State() *State { return s.state }

// Calls reports the cumulative RPC dispatch count — the metadata
// round-trips clients have charged this version manager. Regression
// tests pin it: reads against a pinned core.Snapshot must not grow it.
// It always equals Ops().Total().
func (s *Service) Calls() int64 { return s.calls.Load() }

// Ops reports the dispatch count split by operation.
func (s *Service) Ops() OpCounts {
	return OpCounts{
		Create:      s.ops[mCreateBlob-1].Load(),
		GetMeta:     s.ops[mGetMeta-1].Load(),
		Assign:      s.ops[mAssignVersion-1].Load(),
		Commit:      s.ops[mCommit-1].Load(),
		Abort:       s.ops[mAbort-1].Load(),
		Latest:      s.ops[mLatest-1].Load(),
		VersionInfo: s.ops[mVersionInfo-1].Load(),
		History:     s.ops[mHistory-1].Load(),
		Wait:        s.ops[mWaitPublished-1].Load(),
		List:        s.ops[mListBlobs-1].Load(),
		Prune:       s.ops[mPrune-1].Load(),
		PrunedBelow: s.ops[mPrunedBelow-1].Load(),
		WALStatus:   s.ops[mWALStatus-1].Load(),
		Snapshot:    s.ops[mForceSnapshot-1].Load(),
	}
}

// counted wraps a handler with the total and per-op dispatch counters
// plus the per-op latency histogram.
func (s *Service) counted(m uint16, fn rpc.HandlerFunc) rpc.HandlerFunc {
	h := s.opLatency[m-1]
	return func(ctx context.Context, p []byte) ([]byte, error) {
		s.calls.Add(1)
		s.ops[m-1].Add(1)
		t0 := time.Now()
		resp, err := fn(ctx, p)
		h.ObserveSince(t0)
		return resp, err
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

// Mux returns the RPC dispatch table.
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMux()
	m.Handle(mCreateBlob, s.counted(mCreateBlob, s.handleCreate))
	m.Handle(mGetMeta, s.counted(mGetMeta, s.handleGetMeta))
	m.Handle(mAssignVersion, s.counted(mAssignVersion, s.handleAssign))
	m.Handle(mCommit, s.counted(mCommit, s.handleCommit))
	m.Handle(mAbort, s.counted(mAbort, s.handleAbort))
	m.Handle(mLatest, s.counted(mLatest, s.handleLatest))
	m.Handle(mVersionInfo, s.counted(mVersionInfo, s.handleVersionInfo))
	m.Handle(mHistory, s.counted(mHistory, s.handleHistory))
	m.Handle(mWaitPublished, s.counted(mWaitPublished, s.handleWait))
	m.Handle(mListBlobs, s.counted(mListBlobs, s.handleListBlobs))
	m.Handle(mPrune, s.counted(mPrune, s.handlePrune))
	m.Handle(mPrunedBelow, s.counted(mPrunedBelow, s.handlePrunedBelow))
	m.Handle(mWALStatus, s.counted(mWALStatus, s.handleWALStatus))
	m.Handle(mForceSnapshot, s.counted(mForceSnapshot, s.handleForceSnapshot))
	return m
}

func encodeOps(b *wire.Buffer, o OpCounts) {
	b.I64(o.Create)
	b.I64(o.GetMeta)
	b.I64(o.Assign)
	b.I64(o.Commit)
	b.I64(o.Abort)
	b.I64(o.Latest)
	b.I64(o.VersionInfo)
	b.I64(o.History)
	b.I64(o.Wait)
	b.I64(o.List)
	b.I64(o.Prune)
	b.I64(o.PrunedBelow)
	b.I64(o.WALStatus)
	b.I64(o.Snapshot)
}

func decodeOps(r *wire.Reader) OpCounts {
	return OpCounts{
		Create:      r.I64(),
		GetMeta:     r.I64(),
		Assign:      r.I64(),
		Commit:      r.I64(),
		Abort:       r.I64(),
		Latest:      r.I64(),
		VersionInfo: r.I64(),
		History:     r.I64(),
		Wait:        r.I64(),
		List:        r.I64(),
		Prune:       r.I64(),
		PrunedBelow: r.I64(),
		WALStatus:   r.I64(),
		Snapshot:    r.I64(),
	}
}

func (s *Service) handleWALStatus(ctx context.Context, p []byte) ([]byte, error) {
	st, err := s.state.WALStatus()
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(192)
	b.String(st.Dir)
	b.U32(uint32(st.Segments))
	b.U64(st.FirstSeq)
	b.U64(st.LastSeq)
	b.U64(st.SnapshotSeq)
	b.I64(st.LogBytes)
	b.U64(st.Records)
	b.I64(st.LastSyncUnix)
	b.U64(st.Syncs)
	encodeOps(b, s.Ops())
	return b.Bytes(), nil
}

func (s *Service) handleForceSnapshot(ctx context.Context, p []byte) ([]byte, error) {
	if err := s.state.SnapshotNow(); err != nil {
		return nil, wrap(err)
	}
	return nil, nil
}

func encodeDesc(b *wire.Buffer, d blob.WriteDesc) {
	b.U64(uint64(d.Version))
	b.I64(d.Off)
	b.I64(d.Len)
	b.I64(d.SizeAfter)
	b.U8(uint8(d.Kind))
	b.U64(d.Nonce)
	b.Bool(d.Aborted)
}

func decodeDesc(r *wire.Reader) blob.WriteDesc {
	return blob.WriteDesc{
		Version:   blob.Version(r.U64()),
		Off:       r.I64(),
		Len:       r.I64(),
		SizeAfter: r.I64(),
		Kind:      blob.WriteKind(r.U8()),
		Nonce:     r.U64(),
		Aborted:   r.Bool(),
	}
}

func encodeDescs(b *wire.Buffer, ds []blob.WriteDesc) {
	b.U32(uint32(len(ds)))
	for _, d := range ds {
		encodeDesc(b, d)
	}
}

func decodeDescs(r *wire.Reader) []blob.WriteDesc {
	n := r.U32()
	if r.Err() != nil || n > uint32(r.Remaining()) {
		return nil
	}
	out := make([]blob.WriteDesc, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, decodeDesc(r))
	}
	return out
}

func (s *Service) handleCreate(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	blockSize := r.I64()
	replication := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m, err := s.state.CreateBlob(blockSize, replication)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(8)
	b.U64(uint64(m.ID))
	return b.Bytes(), nil
}

func (s *Service) handleGetMeta(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m, err := s.state.GetMeta(id)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(12)
	b.I64(m.BlockSize)
	b.U32(uint32(m.Replication))
	return b.Bytes(), nil
}

func (s *Service) handleAssign(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	kind := blob.WriteKind(r.U8())
	off := r.I64()
	size := r.I64()
	nonce := r.U64()
	since := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	a, err := s.state.AssignVersion(id, kind, off, size, nonce, since)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(64)
	b.U64(uint64(a.Version))
	b.I64(a.Off)
	b.I64(a.Size)
	encodeDescs(b, a.Descs)
	return b.Bytes(), nil
}

func (s *Service) handleCommit(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	v := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, wrap(s.state.Commit(id, v))
}

func (s *Service) handleAbort(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	v := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, wrap(s.state.Abort(id, v))
}

func (s *Service) handleLatest(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	v, size, err := s.state.Latest(id)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(16)
	b.U64(uint64(v))
	b.I64(size)
	return b.Bytes(), nil
}

func (s *Service) handleVersionInfo(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	v := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	d, err := s.state.VersionInfo(id, v)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(48)
	encodeDesc(b, d)
	return b.Bytes(), nil
}

func (s *Service) handleHistory(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	since := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	ds, err := s.state.History(id, since)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(4 + len(ds)*48)
	encodeDescs(b, ds)
	return b.Bytes(), nil
}

func (s *Service) handleWait(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	v := blob.Version(r.U64())
	timeoutMs := r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	pub, size, err := s.state.WaitPublished(id, v, time.Duration(timeoutMs)*time.Millisecond)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(16)
	b.U64(uint64(pub))
	b.I64(size)
	return b.Bytes(), nil
}

func (s *Service) handleListBlobs(ctx context.Context, p []byte) ([]byte, error) {
	ids := s.state.Blobs()
	b := wire.NewBuffer(4 + len(ids)*8)
	b.U32(uint32(len(ids)))
	for _, id := range ids {
		b.U64(uint64(id))
	}
	return b.Bytes(), nil
}

func (s *Service) handlePrune(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	keep := blob.Version(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	from, err := s.state.Prune(id, keep)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(8)
	b.U64(uint64(from))
	return b.Bytes(), nil
}

func (s *Service) handlePrunedBelow(ctx context.Context, p []byte) ([]byte, error) {
	r := wire.NewReader(p)
	id := blob.ID(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	v, err := s.state.PrunedBelow(id)
	if err != nil {
		return nil, wrap(err)
	}
	b := wire.NewBuffer(8)
	b.U64(uint64(v))
	return b.Bytes(), nil
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

// NumShards reports the shard count K.
func (c *Client) NumShards() int { return len(c.addrs) }

// SetRetry overrides the client's retry schedule (chaos tests widen it,
// latency-sensitive callers shrink it).
func (c *Client) SetRetry(b rpc.Backoff) { c.retry = b }

// call issues one RPC to shard k.
func (c *Client) call(ctx context.Context, k int, m uint16, payload []byte) ([]byte, error) {
	var resp []byte
	err := rpc.Retry(ctx, c.retry, func(ctx context.Context) error {
		cl, err := c.pool.Get(c.addrs[k])
		if err != nil {
			return err
		}
		resp, err = cl.Call(ctx, m, payload)
		return err
	})
	if err != nil {
		return nil, errFromCode(err)
	}
	return resp, nil
}

// callBlob issues one RPC to the shard owning id.
func (c *Client) callBlob(ctx context.Context, id blob.ID, m uint16, payload []byte) ([]byte, error) {
	return c.call(ctx, ShardOf(id, len(c.addrs)), m, payload)
}

// CreateBlob allocates a new blob on the next shard in round-robin
// order, spreading unrelated blobs across the control plane.
func (c *Client) CreateBlob(ctx context.Context, blockSize int64, replication int) (blob.Meta, error) {
	b := wire.NewBuffer(12)
	b.I64(blockSize)
	b.U32(uint32(replication))
	k := int((c.next.Add(1) - 1) % uint64(len(c.addrs)))
	resp, err := c.call(ctx, k, mCreateBlob, b.Bytes())
	if err != nil {
		return blob.Meta{}, err
	}
	r := wire.NewReader(resp)
	m := blob.Meta{ID: blob.ID(r.U64()), BlockSize: blockSize, Replication: replication}
	return m, r.Err()
}

// GetMeta fetches a blob's static configuration.
func (c *Client) GetMeta(ctx context.Context, id blob.ID) (blob.Meta, error) {
	b := wire.NewBuffer(8)
	b.U64(uint64(id))
	resp, err := c.callBlob(ctx, id, mGetMeta, b.Bytes())
	if err != nil {
		return blob.Meta{}, err
	}
	r := wire.NewReader(resp)
	m := blob.Meta{ID: id, BlockSize: r.I64(), Replication: int(r.U32())}
	return m, r.Err()
}

// AssignVersion requests a version number for a prepared write.
func (c *Client) AssignVersion(ctx context.Context, id blob.ID, kind blob.WriteKind, off, size int64, nonce uint64, since blob.Version) (Assignment, error) {
	b := wire.NewBuffer(48)
	b.U64(uint64(id))
	b.U8(uint8(kind))
	b.I64(off)
	b.I64(size)
	b.U64(nonce)
	b.U64(uint64(since))
	resp, err := c.callBlob(ctx, id, mAssignVersion, b.Bytes())
	if err != nil {
		return Assignment{}, err
	}
	r := wire.NewReader(resp)
	a := Assignment{
		Version: blob.Version(r.U64()),
		Off:     r.I64(),
		Size:    r.I64(),
		Descs:   decodeDescs(r),
	}
	return a, r.Err()
}

// Commit reports a completed write.
func (c *Client) Commit(ctx context.Context, id blob.ID, v blob.Version) error {
	b := wire.NewBuffer(16)
	b.U64(uint64(id))
	b.U64(uint64(v))
	_, err := c.callBlob(ctx, id, mCommit, b.Bytes())
	return err
}

// Abort reports a failed write.
func (c *Client) Abort(ctx context.Context, id blob.ID, v blob.Version) error {
	b := wire.NewBuffer(16)
	b.U64(uint64(id))
	b.U64(uint64(v))
	_, err := c.callBlob(ctx, id, mAbort, b.Bytes())
	return err
}

// Latest returns the newest published version and size.
func (c *Client) Latest(ctx context.Context, id blob.ID) (blob.Version, int64, error) {
	b := wire.NewBuffer(8)
	b.U64(uint64(id))
	resp, err := c.callBlob(ctx, id, mLatest, b.Bytes())
	if err != nil {
		return 0, 0, err
	}
	r := wire.NewReader(resp)
	v := blob.Version(r.U64())
	size := r.I64()
	return v, size, r.Err()
}

// VersionInfo fetches one version's descriptor.
func (c *Client) VersionInfo(ctx context.Context, id blob.ID, v blob.Version) (blob.WriteDesc, error) {
	b := wire.NewBuffer(16)
	b.U64(uint64(id))
	b.U64(uint64(v))
	resp, err := c.callBlob(ctx, id, mVersionInfo, b.Bytes())
	if err != nil {
		return blob.WriteDesc{}, err
	}
	r := wire.NewReader(resp)
	d := decodeDesc(r)
	return d, r.Err()
}

// History fetches descriptors after since.
func (c *Client) History(ctx context.Context, id blob.ID, since blob.Version) ([]blob.WriteDesc, error) {
	b := wire.NewBuffer(16)
	b.U64(uint64(id))
	b.U64(uint64(since))
	resp, err := c.callBlob(ctx, id, mHistory, b.Bytes())
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	ds := decodeDescs(r)
	return ds, r.Err()
}

// WaitPublished blocks until v is published or timeout passes. The
// call blocks server-side by design, so it is exempted from the
// per-call I/O deadline; if the manager restarts mid-wait the retry in
// call re-issues it, re-arming the waiter on the recovered state.
func (c *Client) WaitPublished(ctx context.Context, id blob.ID, v blob.Version, timeout time.Duration) (blob.Version, int64, error) {
	b := wire.NewBuffer(24)
	b.U64(uint64(id))
	b.U64(uint64(v))
	b.I64(int64(timeout / time.Millisecond))
	resp, err := c.callBlob(rpc.NoTimeout(ctx), id, mWaitPublished, b.Bytes())
	if err != nil {
		return 0, 0, err
	}
	r := wire.NewReader(resp)
	pub := blob.Version(r.U64())
	size := r.I64()
	return pub, size, r.Err()
}

// ListBlobs returns all blob IDs, merging every shard's list into
// ascending ID order.
func (c *Client) ListBlobs(ctx context.Context) ([]blob.ID, error) {
	var out []blob.ID
	for k := range c.addrs {
		resp, err := c.call(ctx, k, mListBlobs, nil)
		if err != nil {
			return nil, err
		}
		r := wire.NewReader(resp)
		n := r.U32()
		out = slices.Grow(out, int(n))
		for i := uint32(0); i < n; i++ {
			out = append(out, blob.ID(r.U64()))
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	slices.Sort(out)
	return out, nil
}

// PrunedBelow returns the oldest still-readable version of the blob
// (1 if never pruned). The repair scanner uses it to bound its walk to
// versions whose metadata still exists.
func (c *Client) PrunedBelow(ctx context.Context, id blob.ID) (blob.Version, error) {
	b := wire.NewBuffer(8)
	b.U64(uint64(id))
	resp, err := c.callBlob(ctx, id, mPrunedBelow, b.Bytes())
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(resp)
	v := blob.Version(r.U64())
	return v, r.Err()
}

// Prune advances the oldest readable version to keep, returning the
// previous prune point (see State.Prune).
func (c *Client) Prune(ctx context.Context, id blob.ID, keep blob.Version) (blob.Version, error) {
	b := wire.NewBuffer(16)
	b.U64(uint64(id))
	b.U64(uint64(keep))
	resp, err := c.callBlob(ctx, id, mPrune, b.Bytes())
	if err != nil {
		return 0, errFromCode(err)
	}
	r := wire.NewReader(resp)
	from := blob.Version(r.U64())
	return from, r.Err()
}

// StatusReply is one shard's WAL shape plus its per-op dispatch
// counters (bsfsctl vm status).
type StatusReply struct {
	WAL wal.Status
	Ops OpCounts
}

// Status reports shard k's write-ahead-log shape and per-op dispatch
// counters. Fails with a remote error when the shard runs without a
// WAL.
func (c *Client) Status(ctx context.Context, k int) (StatusReply, error) {
	resp, err := c.call(ctx, k, mWALStatus, nil)
	if err != nil {
		return StatusReply{}, err
	}
	r := wire.NewReader(resp)
	st := StatusReply{
		WAL: wal.Status{
			Dir:          r.String(),
			Segments:     int(r.U32()),
			FirstSeq:     r.U64(),
			LastSeq:      r.U64(),
			SnapshotSeq:  r.U64(),
			LogBytes:     r.I64(),
			Records:      r.U64(),
			LastSyncUnix: r.I64(),
			Syncs:        r.U64(),
		},
		Ops: decodeOps(r),
	}
	return st, r.Err()
}

// ForceSnapshot snapshots every shard's state into its WAL and compacts
// the log behind it, reporting the failures after attempting all shards.
func (c *Client) ForceSnapshot(ctx context.Context) error {
	var errs []error
	for k := range c.addrs {
		if _, err := c.call(ctx, k, mForceSnapshot, nil); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", k, err))
		}
	}
	return errors.Join(errs...)
}
