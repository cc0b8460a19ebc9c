package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/vmanager"
)

// These white-box tests run the client against a hand-built in-process
// deployment instead of package cluster (which imports core and would
// cycle). That also lets them wrap the transport and the stores with
// counters — the instruments for byte-accounting and rotation claims.

// countingConn counts bytes the client writes (its egress).
type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// countingStore counts block reads served by one provider.
type countingStore struct {
	store.Store
	gets atomic.Int64
}

func (c *countingStore) ReadAt(key string, p []byte, off int64) (int, error) {
	c.gets.Add(1)
	return c.Store.ReadAt(key, p, off)
}

type miniDeploy struct {
	net    *rpc.InprocNetwork
	vm     *vmanager.Service
	vmAddr string
	pmAddr string
	// meta is the metadata store itself; clientMeta is what clients
	// write through — tests may wrap it with failure injection and
	// still inspect the store through meta.
	meta       mdtree.Store
	clientMeta mdtree.Store
	provStore  []*countingStore
}

// startMini deploys vmanager + pmanager + nProv chain-capable providers
// over an inproc network and returns the fabric.
func startMini(t *testing.T, nProv int, meta mdtree.Store) *miniDeploy {
	t.Helper()
	d := &miniDeploy{net: rpc.NewInprocNetwork(), meta: meta, clientMeta: meta}
	serve := func(name string, mux *rpc.Mux) string {
		lis, err := d.net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(mux)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		return name
	}
	d.vm = vmanager.NewService(vmanager.NewState(nil))
	d.vmAddr = serve("vmanager", d.vm.Mux())
	pmState := pmanager.NewState(placement.NewRoundRobin())
	d.pmAddr = serve("pmanager", pmanager.NewService(pmState).Mux())

	// Providers forward over their own pool, so the client pool's
	// byte counters see client traffic only.
	provPool := rpc.NewPool(d.net.Dial)
	t.Cleanup(provPool.Close)
	for i := 0; i < nProv; i++ {
		cs := &countingStore{Store: store.NewMemStore()}
		d.provStore = append(d.provStore, cs)
		addr := serve(fmt.Sprintf("provider-%d", i), provider.NewService(cs, provider.WithForwarder(provPool)).Mux())
		pmState.Register(addr, fmt.Sprintf("host-%d", i))
	}
	return d
}

// newClient returns a core client whose egress bytes accumulate in the
// returned counter.
func (d *miniDeploy) newClient(t *testing.T) (*Client, *atomic.Int64) {
	t.Helper()
	sent := new(atomic.Int64)
	pool := rpc.NewPool(func(addr string) (net.Conn, error) {
		conn, err := d.net.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, sent: sent}, nil
	})
	t.Cleanup(pool.Close)
	return NewClient(Config{
		Pool:      pool,
		VMAddrs:   []string{d.vmAddr},
		PMAddr:    d.pmAddr,
		MetaStore: d.clientMeta,
	}), sent
}

// readVersion reads the first n bytes of published version v.
func readVersion(ctx context.Context, b *Blob, v blob.Version, n int64) ([]byte, error) {
	s, err := b.Snapshot(ctx, v)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := s.ReadAtContext(ctx, buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// TestChainedWriteClientEgressBytes pins the data plane's claim on the
// real client stack: a write of N blocks at replication R=3 costs the
// client ~N blocks of uplink (1×B per block), not R×N.
func TestChainedWriteClientEgressBytes(t *testing.T) {
	const (
		blockSize = int64(64 * 1024)
		nBlocks   = 4
		repl      = 3
	)
	payloadBytes := int64(nBlocks) * blockSize

	d := startMini(t, 4, mdtree.NewMemStore())
	c, sent := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, blockSize, repl)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, int(payloadBytes))
	v, err := b.Append(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.ChainFallbacks(); n != 0 {
		t.Fatalf("ChainFallbacks = %d on a healthy chain, want 0", n)
	}
	// The data must actually be replicated R times and readable.
	got, err := readVersion(ctx, b, v, payloadBytes)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back: %v", err)
	}
	var stored int64
	for _, cs := range d.provStore {
		stored += cs.Stats().Bytes
	}
	if stored != repl*payloadBytes {
		t.Errorf("providers hold %d bytes, want %d (R×payload)", stored, repl*payloadBytes)
	}

	// One copy of the payload plus protocol overhead. The read and
	// control RPCs ride the same counter, so allow generous slack —
	// generous is still far below a second payload copy.
	egress, slack := sent.Load(), payloadBytes/2
	if egress < payloadBytes || egress > payloadBytes+slack {
		t.Errorf("client egress = %d, want ~%d (+%d slack): 1×B per block at R=%d", egress, payloadBytes, slack, repl)
	}
}

// TestChainedReplicasHoldIdenticalBlocks verifies every replica in the
// chain ends up with byte-identical committed blocks.
func TestChainedReplicasHoldIdenticalBlocks(t *testing.T) {
	const blockSize = int64(8 * 1024)
	d := startMini(t, 3, mdtree.NewMemStore())
	c, _ := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, blockSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, int(4*blockSize))
	if _, err := b.Append(ctx, payload); err != nil {
		t.Fatal(err)
	}
	for i, cs := range d.provStore {
		st := cs.Stats()
		if st.Items != 4 || st.Bytes != 4*blockSize {
			t.Errorf("provider %d stats = %+v, want 4 items / %d bytes", i, st, 4*blockSize)
		}
	}
}

// TestReadRotationSpreadsAcrossReplicas pins that repeated reads of the
// same block do not serialize on the first replica address.
func TestReadRotationSpreadsAcrossReplicas(t *testing.T) {
	const blockSize = int64(4 * 1024)
	d := startMini(t, 2, mdtree.NewMemStore())
	c, _ := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, blockSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Append(ctx, make([]byte, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := readVersion(ctx, b, v, blockSize); err != nil {
			t.Fatal(err)
		}
	}
	g0, g1 := d.provStore[0].gets.Load(), d.provStore[1].gets.Load()
	if g0 == 0 || g1 == 0 {
		t.Errorf("8 reads of a 2-replica block hit providers %d/%d times; rotation should spread them", g0, g1)
	}
}

// failingMetaStore fails every Put while broken — the injection for
// metadata-build failure mid-write — and every read while readsBroken.
type failingMetaStore struct {
	*mdtree.MemStore
	broken, readsBroken atomic.Bool
}

func (f *failingMetaStore) Get(ctx context.Context, id mdtree.NodeID) (mdtree.Node, error) {
	if f.readsBroken.Load() {
		return mdtree.Node{}, errors.New("injected metadata read failure")
	}
	return f.MemStore.Get(ctx, id)
}

func (f *failingMetaStore) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	if f.readsBroken.Load() {
		return nil, errors.New("injected metadata read failure")
	}
	return f.MemStore.GetBatch(ctx, ids)
}

func (f *failingMetaStore) Put(ctx context.Context, n mdtree.Node) error {
	if f.broken.Load() {
		return errors.New("injected metadata failure")
	}
	return f.MemStore.Put(ctx, n)
}

func (f *failingMetaStore) PutBatch(ctx context.Context, nodes []mdtree.Node) error {
	if f.broken.Load() {
		return errors.New("injected metadata failure")
	}
	return f.MemStore.PutBatch(ctx, nodes)
}

// TestFailedWriteAbortsAssignedVersion pins the version-leak fix: when
// a write dies after AssignVersion, doWrite must abort the version so
// publication moves past it immediately — a later write must publish
// without waiting for any janitor.
func TestFailedWriteAbortsAssignedVersion(t *testing.T) {
	const blockSize = int64(4 * 1024)
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner)
	d.clientMeta = meta
	c, _ := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, blockSize, 1)
	if err != nil {
		t.Fatal(err)
	}

	meta.broken.Store(true)
	if _, err := b.Append(ctx, make([]byte, blockSize)); err == nil {
		t.Fatal("write with broken metadata store succeeded")
	}
	meta.broken.Store(false)

	// No deployment janitor runs here: only doWrite's own abort can
	// have resolved the version, so this publishes (or the test hangs on
	// the stalled version and times out below).
	v, err := b.Append(ctx, make([]byte, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WaitPublished(ctx, v, 2*time.Second); err != nil {
		t.Fatalf("version after failed write never published: %v", err)
	}
	// The failed write's blocks were garbage collected.
	var items int64
	for _, cs := range d.provStore {
		items += cs.Stats().Items
	}
	if items != 1 {
		t.Errorf("%d blocks on providers, want 1 (failed write's orphans GC'd)", items)
	}
}

// TestGCFreesBlocksWithoutReadingLeaves: a sweep names each dead block
// and its replicas from the write's descriptor, so it reads no leaf: with
// every metadata read failing it still frees the overwritten version's
// block and deletes its leaf.
func TestGCFreesBlocksWithoutReadingLeaves(t *testing.T) {
	const blockSize = int64(4 * 1024)
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner)
	d.clientMeta = meta
	c, _ := d.newClient(t)
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, blockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	var v blob.Version
	for _, tag := range []byte{'a', 'b'} { // v2 overwrites v1's one block
		if v, err = b.Write(ctx, 0, bytes.Repeat([]byte{tag}, int(blockSize))); err != nil {
			t.Fatal(err)
		}
	}
	meta.readsBroken.Store(true)
	st, err := c.GC(ctx, b.ID(), v)
	if err != nil {
		t.Fatalf("GC with every metadata read failing: %v", err)
	}
	if leaf := (mdtree.NodeID{Blob: b.ID(), Version: 1, Span: blockSize}); inner.Has(leaf) {
		t.Error("GC left the dead leaf stored")
	}
	var items int64
	for _, cs := range d.provStore {
		items += cs.Stats().Items
	}
	if items != 1 || st.BlocksFreed != 1 {
		t.Errorf("%d blocks on providers after GC, %d freed; want v2's 1 left and v1's freed", items, st.BlocksFreed)
	}
}

// TestChainOrderLeadsWithLocalProvider pins the chain-head choice: the
// provider co-hosted with the client must lead the chain.
func TestChainOrderLeadsWithLocalProvider(t *testing.T) {
	d := startMini(t, 3, mdtree.NewMemStore())
	pool := rpc.NewPool(d.net.Dial)
	t.Cleanup(pool.Close)
	c := NewClient(Config{
		Pool: pool, VMAddrs: []string{d.vmAddr}, PMAddr: d.pmAddr,
		MetaStore: d.meta, Host: "host-1",
	})
	ctx := context.Background()
	got := c.chainOrder(ctx, []string{"provider-0", "provider-1", "provider-2"})
	want := []string{"provider-1", "provider-0", "provider-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chainOrder = %v, want %v", got, want)
		}
	}
	// No co-hosted provider: order untouched.
	c2 := NewClient(Config{
		Pool: pool, VMAddrs: []string{d.vmAddr}, PMAddr: d.pmAddr,
		MetaStore: d.meta, Host: "elsewhere",
	})
	got = c2.chainOrder(ctx, []string{"provider-2", "provider-0"})
	if got[0] != "provider-2" || got[1] != "provider-0" {
		t.Fatalf("chainOrder without local replica = %v", got)
	}
}
