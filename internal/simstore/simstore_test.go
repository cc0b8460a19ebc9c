package simstore

import (
	"context"
	"math"
	"reflect"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/util"
)

const testBlock = 64 * util.MB

// smallBSFS deploys a simulated BlobSeer on a 12-node fabric: vm on 0,
// metadata on 1-2, providers on 3-9; nodes 10-11 free for clients.
func smallBSFS(t *testing.T) *BSFS {
	t.Helper()
	env := sim.NewEnv()
	net := simnet.New(env, simnet.Grid5000(12))
	return NewBSFS(net, DefaultTuning(), placement.NewRoundRobin(),
		0, []simnet.NodeID{1, 2}, []simnet.NodeID{3, 4, 5, 6, 7, 8, 9})
}

func smallHDFS(t *testing.T, strategy placement.Strategy) *HDFS {
	t.Helper()
	env := sim.NewEnv()
	net := simnet.New(env, simnet.Grid5000(12))
	return NewHDFS(net, DefaultTuning(), strategy, 0,
		[]simnet.NodeID{3, 4, 5, 6, 7, 8, 9})
}

func TestBSFSWriteAssignsSequentialVersions(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 1)
	var versions []blob.Version
	b.Env.Go(func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			v, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, testBlock, uint64(i)+1)
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			versions = append(versions, v)
		}
	})
	b.Env.Run()
	if len(versions) != 3 {
		t.Fatalf("want 3 versions, got %v", versions)
	}
	for i, v := range versions {
		if v != blob.Version(i+1) {
			t.Errorf("write %d got version %d", i, v)
		}
	}
	if h, err := b.head(m.ID); err != nil || h.Size != 3*testBlock {
		t.Errorf("latest size = %d, err %v; want %d", h.Size, err, 3*testBlock)
	}
}

func TestBSFSSingleStreamRateMatchesTuning(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 1)
	var end sim.Time
	b.Env.Go(func(p *sim.Proc) {
		if _, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, testBlock, 1); err != nil {
			t.Error(err)
			return
		}
		end = p.Now()
	})
	b.Env.Run()
	cap := b.Tun.BSFSWriteEff * b.Net.Config().UpBps
	ideal := float64(testBlock) / cap
	got := end.Seconds()
	if got < ideal || got > ideal*1.2 {
		t.Errorf("single write took %.3fs, want within 20%% above the %.3fs cap-limited time", got, ideal)
	}
}

func TestBSFSReadBackBytes(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 1)
	b.Env.Go(func(p *sim.Proc) {
		if _, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, 2*testBlock, 1); err != nil {
			t.Error(err)
		}
	})
	b.Env.Run()
	var n int64
	b.Env.Go(func(p *sim.Proc) {
		var err error
		n, err = b.Read(p, 11, m.ID, testBlock/2, testBlock)
		if err != nil {
			t.Error(err)
		}
	})
	b.Env.Run()
	if n != testBlock {
		t.Errorf("read returned %d bytes, want %d", n, testBlock)
	}
}

func TestBSFSReplicationWritesAllCopies(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 3)
	var end sim.Time
	b.Env.Go(func(p *sim.Proc) {
		if _, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, testBlock, 1); err != nil {
			t.Error(err)
			return
		}
		end = p.Now()
	})
	b.Env.Run()
	layout := b.Layout()
	total := 0
	for _, c := range layout {
		total += c
	}
	if total != 3 {
		t.Errorf("3 replicas should occupy 3 provider slots, layout %v", layout)
	}
	// The chain's hops stream concurrently, so the replicated write
	// costs about one single-copy time: at least that, and well under
	// the 3x a client pushing every copy itself would pay.
	cap := b.Tun.BSFSWriteEff * b.Net.Config().UpBps
	single := float64(testBlock) / cap
	if end.Seconds() < single || end.Seconds() > 2*single {
		t.Errorf("replicated write took %.3fs, want within [%.3fs, %.3fs]", end.Seconds(), single, 2*single)
	}
}

func TestBSFSRoundRobinLayoutIsBalanced(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 1)
	b.Env.Go(func(p *sim.Proc) {
		for i := 0; i < 14; i++ { // 2 full rounds over 7 providers
			if _, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, testBlock, uint64(i)+1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	b.Env.Run()
	for i, c := range b.Layout() {
		if c != 2 {
			t.Errorf("provider %d stores %d blocks, want 2 (layout %v)", i, c, b.Layout())
		}
	}
}

func TestBSFSLocationsOfReportsNodes(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 1)
	b.Env.Go(func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, testBlock, uint64(i)+1); err != nil {
				t.Error(err)
			}
		}
	})
	b.Env.Run()
	nodes, err := b.LocationsOf(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("want 3 chunk locations, got %v", nodes)
	}
	for i, n := range nodes {
		if n < 3 || n > 9 {
			t.Errorf("chunk %d on non-provider node %d", i, n)
		}
	}
}

func TestHDFSLocalFirstWritesLocally(t *testing.T) {
	h := smallHDFS(t, placement.NewLocalFirst(placement.NewRandomSticky(4, 1)))
	h.Env.Go(func(p *sim.Proc) {
		// Client on node 5 (a datanode): every chunk must stay local.
		if err := h.Write(p, 5, "/f", 4*testBlock, testBlock); err != nil {
			t.Error(err)
		}
	})
	h.Env.Run()
	for i, n := range h.LocationsOf("/f") {
		if n != 5 {
			t.Errorf("chunk %d placed on node %d, want local node 5", i, n)
		}
	}
}

func TestHDFSDedicatedWriterSpreadsChunks(t *testing.T) {
	h := smallHDFS(t, placement.NewLocalFirst(placement.NewRandomSticky(2, 7)))
	h.Env.Go(func(p *sim.Proc) {
		// Client on node 10 is NOT a datanode: placement falls through
		// to the sticky-random inner strategy.
		if err := h.Write(p, 10, "/f", 8*testBlock, testBlock); err != nil {
			t.Error(err)
		}
	})
	h.Env.Run()
	distinct := make(map[simnet.NodeID]bool)
	for _, n := range h.LocationsOf("/f") {
		if n == 10 {
			t.Error("chunk placed on the non-datanode client")
		}
		distinct[n] = true
	}
	if len(distinct) < 2 {
		t.Errorf("sticky placement with window 2 over 8 chunks should hit >=2 nodes, got %d", len(distinct))
	}
}

func TestHDFSNoDuplicateCreate(t *testing.T) {
	h := smallHDFS(t, placement.NewRandom(1))
	if err := h.CreateFile("/f"); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateFile("/f"); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestHDFSReadUnknownFileFails(t *testing.T) {
	h := smallHDFS(t, placement.NewRandom(1))
	h.Env.Go(func(p *sim.Proc) {
		if _, err := h.Read(p, 10, "/missing", 0, testBlock); err == nil {
			t.Error("read of missing file should fail")
		}
	})
	h.Env.Run()
}

// TestDiskContentionHalvesRate pins the disk model: two concurrent
// readers pulling distinct chunks from the same datanode share its
// disk medium, so each sees roughly half the single-reader rate.
func TestDiskContentionHalvesRate(t *testing.T) {
	mk := func() *HDFS {
		env := sim.NewEnv()
		cfg := simnet.Grid5000(12)
		cfg.DiskBps = 80e6 // below the read cap so the disk binds
		net := simnet.New(env, cfg)
		return NewHDFS(net, DefaultTuning(), placement.NewRandomSticky(100, 1), 0,
			[]simnet.NodeID{3, 4, 5, 6, 7, 8, 9})
	}

	// Solo: one reader.
	h := mk()
	h.Env.Go(func(p *sim.Proc) {
		if err := h.Write(p, 10, "/f", 2*testBlock, testBlock); err != nil {
			t.Error(err)
		}
	})
	h.Env.Run()
	soloStart := h.Env.Now()
	var solo sim.Time
	h.Env.Go(func(p *sim.Proc) {
		if _, err := h.Read(p, 10, "/f", 0, testBlock); err != nil {
			t.Error(err)
		}
		solo = p.Now() - soloStart
	})
	h.Env.Run()

	// Contended: two readers on different client nodes, same disk
	// (window 100 stickiness pins both chunks to one datanode).
	h2 := mk()
	h2.Env.Go(func(p *sim.Proc) {
		if err := h2.Write(p, 10, "/f", 2*testBlock, testBlock); err != nil {
			t.Error(err)
		}
	})
	h2.Env.Run()
	nodes := h2.LocationsOf("/f")
	if nodes[0] != nodes[1] {
		t.Fatalf("expected both chunks on one node, got %v", nodes)
	}
	dualStart := h2.Env.Now()
	var dual [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		client := simnet.NodeID(10 + i)
		h2.Env.Go(func(p *sim.Proc) {
			if _, err := h2.Read(p, client, "/f", int64(i)*testBlock, testBlock); err != nil {
				t.Error(err)
			}
			dual[i] = p.Now() - dualStart
		})
	}
	h2.Env.Run()

	// Solo rate is the per-stream cap; contended rate is the halved
	// disk medium (which is below the cap by construction).
	soloRate := h2.Tun.HDFSReadEff * h2.Net.Config().UpBps
	want := soloRate / (h2.Net.Config().DiskBps / 2)
	for i := range dual {
		ratio := dual[i].Seconds() / solo.Seconds()
		if math.Abs(ratio-want) > 0.15*want {
			t.Errorf("reader %d contended/solo ratio = %.2f, want ~%.2f (disk shared)", i, ratio, want)
		}
	}
}

func TestBSFSFilesRoundTrip(t *testing.T) {
	b := smallBSFS(t)
	f := NewBSFSFiles(b, testBlock, 1)
	if f.Name() != "bsfs" {
		t.Errorf("name = %q", f.Name())
	}
	if err := f.CreateFile("/a"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateFile("/a"); err == nil {
		t.Fatal("duplicate create should fail")
	}
	f.Env().Go(func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := f.AppendBlock(p, 10, "/a", testBlock); err != nil {
				t.Error(err)
			}
		}
		if err := f.ReadRange(p, 11, "/a", 0, 2*testBlock); err != nil {
			t.Error(err)
		}
		if err := f.AppendBlock(p, 10, "/missing", testBlock); err == nil {
			t.Error("append to missing file should fail")
		}
	})
	f.Env().Run()
	if got := f.Size("/a"); got != 3*testBlock {
		t.Errorf("size = %d, want %d", got, 3*testBlock)
	}
	if nodes := f.ChunkNodes("/a"); len(nodes) != 3 {
		t.Errorf("chunk nodes = %v, want 3 entries", nodes)
	}
}

func TestHDFSFilesRoundTrip(t *testing.T) {
	h := smallHDFS(t, placement.NewRandom(3))
	f := NewHDFSFiles(h, testBlock)
	if f.Name() != "hdfs" {
		t.Errorf("name = %q", f.Name())
	}
	if err := f.CreateFile("/a"); err != nil {
		t.Fatal(err)
	}
	f.Env().Go(func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := f.AppendBlock(p, 10, "/a", testBlock); err != nil {
				t.Error(err)
			}
		}
		if err := f.ReadRange(p, 11, "/a", testBlock/2, testBlock); err != nil {
			t.Error(err)
		}
	})
	f.Env().Run()
	if got := f.Size("/a"); got != 2*testBlock {
		t.Errorf("size = %d, want %d", got, 2*testBlock)
	}
}

// TestConcurrentBSFSWritersAllCommit pins the write/write concurrency
// claim at simulation level: N writers appending concurrently all get
// distinct versions and the blob ends at N blocks.
func TestConcurrentBSFSWritersAllCommit(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 1)
	const n = 12
	seen := make(map[blob.Version]bool)
	for i := 0; i < n; i++ {
		i := i
		b.Env.Go(func(p *sim.Proc) {
			v, err := b.Write(p, simnet.NodeID(3+(i%7)), m.ID, blob.KindAppend, 0, testBlock, uint64(i)+1)
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			if seen[v] {
				t.Errorf("duplicate version %d", v)
			}
			seen[v] = true
		})
	}
	b.Env.Run()
	if len(seen) != n {
		t.Fatalf("want %d distinct versions, got %d", n, len(seen))
	}
	if h, _ := b.head(m.ID); h.Size != n*testBlock {
		t.Errorf("final size %d, want %d", h.Size, int64(n)*testBlock)
	}
}

// TestReadResolvesFromTheBlockIndex: a simulated read, like the real
// client's, names every block's replicas from the descriptors its pin
// fetched. It moves no byte to or from a metadata provider and waits on
// none, and the extents it reads are those the tree walk (mdtree.Resolve,
// the reference) finds in the tree the same writes build.
func TestReadResolvesFromTheBlockIndex(t *testing.T) {
	tun := DefaultTuning()
	tun.MetaService = 3600 * sim.Second // a read that waited on a metadata provider would take hours
	net := simnet.New(sim.NewEnv(), simnet.Grid5000(12))
	metas := []simnet.NodeID{1, 2}
	b := NewBSFS(net, tun, placement.NewRoundRobin(), 0, metas, []simnet.NodeID{3, 4, 5, 6, 7, 8, 9})
	m := b.CreateBlob(testBlock, 2)
	writes := []struct {
		kind      blob.WriteKind
		off, size int64
	}{
		{blob.KindWrite, 0, 3 * testBlock},
		{blob.KindAppend, 0, 2 * testBlock},
		{blob.KindWrite, testBlock, 2 * testBlock}, // an overwrite of two writes' blocks
		{blob.KindAppend, 0, testBlock / 2},        // a partial tail
	}
	b.Env.Go(func(p *sim.Proc) {
		for i, w := range writes {
			if _, err := b.Write(p, 10, m.ID, w.kind, w.off, w.size, uint64(i)+1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	b.Env.Run()

	metaTraffic := func() (bytes float64) {
		for _, n := range metas {
			bytes += net.EgressOf(n) + net.IngressOf(n)
		}
		return bytes
	}
	before := metaTraffic()
	read := blob.Range{Off: testBlock / 2, Len: 4 * testBlock}
	var took sim.Time
	b.Env.Go(func(p *sim.Proc) {
		start := p.Now()
		if n, err := b.Read(p, 11, m.ID, read.Off, read.Len); err != nil || n != read.Len {
			t.Errorf("read %d bytes, %v; want %d", n, err, read.Len)
		}
		took = p.Now() - start
	})
	b.Env.Run()
	if moved := metaTraffic() - before; moved != 0 {
		t.Errorf("a read moved %.0f bytes to or from the metadata providers, want 0", moved)
	}
	if took >= tun.MetaService {
		t.Errorf("a read took %.0fs: it waited on a metadata provider", took.Seconds())
	}

	ctx := context.Background()
	h, descs, err := b.VM.LatestSince(m.ID, 0, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	hist := &blob.History{}
	if err := hist.Extend(descs); err != nil {
		t.Fatal(err)
	}
	tree := mdtree.NewMemStore()
	for _, d := range descs {
		refs := make([]mdtree.BlockRef, blob.Blocks(d.Len, m.BlockSize))
		for i := range refs {
			refs[i] = mdtree.BlockRef{
				Key:       blob.BlockKey{Blob: m.ID, Nonce: d.Nonce, Seq: uint32(i)},
				Providers: d.Replicas[i*m.Replication : (i+1)*m.Replication],
				Len:       min(m.BlockSize, d.Len-int64(i)*m.BlockSize),
			}
		}
		if _, err := mdtree.Build(ctx, tree, m, hist, d.Version, refs); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []blob.Range{read, {Off: 0, Len: h.Size}} {
		want, err := mdtree.Resolve(ctx, tree, m, h.Published, h.Size, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.resolve(m.ID, r)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("extents of %v = %+v, %v; the tree walk finds %+v", r, got, err, want)
		}
	}
}
