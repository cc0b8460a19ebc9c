package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/node"
	"blobseer/internal/store"
)

// writeBlocks publishes an nBlocks-block payload and returns it.
func writeBlocks(t *testing.T, cl *cluster.BlobSeer, id blob.ID, nBlocks int) []byte {
	t.Helper()
	ctx := context.Background()
	client := cl.NewClient("")
	payload := bytes.Repeat([]byte("self-heal "), nBlocks*blockSize/10+1)[:nBlocks*blockSize]
	v, err := appendBlob(ctx, client, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitBlob(ctx, client, id, v, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return payload
}

// liveItems sums committed block counts over the given providers.
func liveItems(cl *cluster.BlobSeer, addrs []string) int64 {
	var n int64
	for _, a := range addrs {
		if svc := cl.ProviderService(a); svc != nil {
			n += svc.Store().Stats().Items
		}
	}
	return n
}

// TestRepairConvergesAfterProviderDeath is the kill-provider acceptance
// test: with R=3, killing one provider after publish converges every
// affected block back to 3 live replicas with repair traffic pinned to
// exactly the lost blocks, and reads keep succeeding — through the
// placements the repair amended — even after every original replica of
// a block has died post-repair.
func TestRepairConvergesAfterProviderDeath(t *testing.T) {
	const nBlocks = 8
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 6,
		Replication:   3,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := writeBlocks(t, cl, m.ID, nBlocks)

	// Every block landed on 3 of 6 providers.
	if got := liveItems(cl, cl.ProviderAddrs); got != int64(3*nBlocks) {
		t.Fatalf("replicas stored = %d, want %d", got, 3*nBlocks)
	}

	// Crash the first provider and (deterministically, instead of
	// waiting out heartbeat expiry) mark it dead.
	victim := cl.ProviderAddrs[0]
	lost := cl.ProviderService(victim).Store().Stats().Items
	if lost == 0 {
		t.Fatal("victim holds no blocks; test topology broken")
	}
	cl.KillProvider(victim)
	cl.PMService().State().MarkDead(victim)

	eng := cl.RepairEngine()
	rep, err := eng.RunOnce(ctx)
	if err != nil {
		t.Fatalf("repair pass: %v (report %+v)", err, rep)
	}
	if int64(rep.UnderReplicated) != lost || int64(rep.Copies) != lost {
		t.Errorf("repair touched %d blocks / %d copies, want exactly the %d lost blocks",
			rep.UnderReplicated, rep.Copies, lost)
	}
	// Convergence: every affected block is back at 3 live replicas, so
	// the live providers together hold the full 3*nBlocks again.
	live := cl.ProviderAddrs[1:]
	if got := liveItems(cl, live); got != int64(3*nBlocks) {
		t.Errorf("live replicas after repair = %d, want %d", got, 3*nBlocks)
	}
	tasks, err := eng.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("still %d under-replicated blocks after repair: %+v", len(tasks), tasks)
	}

	// Op-count regression: a second pass must find nothing to do — no
	// full-cluster rescans re-copying healthy blocks, no redundant
	// copies of repaired ones.
	rep2, err := eng.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Copies != 0 || rep2.UnderReplicated != 0 {
		t.Errorf("second pass made %d copies of %d blocks; repair must be idempotent",
			rep2.Copies, rep2.UnderReplicated)
	}
	if got := liveItems(cl, live); got != int64(3*nBlocks) {
		t.Errorf("second pass changed stored replicas to %d", got)
	}

	// Second and third original deaths post-repair: blocks whose whole
	// original replica set was {p0,p1,p2} are now reachable only via
	// the relocated copies. Reads must still return the full payload.
	for _, addr := range cl.ProviderAddrs[1:3] {
		cl.KillProvider(addr)
		cl.PMService().State().MarkDead(addr)
	}
	got, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after two more original deaths: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read after failures returned wrong bytes (%d of %d)", len(got), len(payload))
	}

	// The same read through a client built from addresses alone, the way
	// bsfsctl and bsfsblaster build theirs: it must find the relocated
	// copies too.
	fromAddrs := node.Connect(cl.Pool, node.Endpoints{
		VM: cl.VMAddrs, PM: cl.PMAddr, NS: cl.NSAddr, Meta: cl.MetaAddrs, MetaReplication: cl.Cfg.MetaReplication,
	}).Core("")
	got, err = readBlob(ctx, fromAddrs, m.ID, blob.NoVersion, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("client built from endpoints read %d of %d bytes after relocation: %v", len(got), len(payload), err)
	}
}

// refusingStore fails its next PutWriter once armed: a provider that
// refuses one frame, then recovers.
type refusingStore struct {
	store.Store
	armed atomic.Bool
}

func (s *refusingStore) PutWriter(key string) (store.BlockWriter, error) {
	if s.armed.CompareAndSwap(true, false) {
		return nil, errors.New("injected refusal")
	}
	return s.Store.PutWriter(key)
}

// refusingStores maps each refusing:// store's host, the provider's
// index, to the store it opened.
var (
	refusingStores   sync.Map
	registerRefusing sync.Once
)

// TestRepairSurvivesOneRefusal: a repair target that refuses one frame
// and recovers costs the pass one retry, not the block. Every attempt
// pushes to the same target, so a refusal that outlived its transfer
// would fail them all, and the next pass too.
func TestRepairSurvivesOneRefusal(t *testing.T) {
	registerRefusing.Do(func() {
		store.Register("refusing", func(u *url.URL) (store.Store, error) {
			st := &refusingStore{Store: store.NewMemStore()}
			refusingStores.Store(u.Host, st)
			return st, nil
		})
	})
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		Replication:   2,
		BlockSize:     int64(blockSize),
		StoreURL:      "refusing://{n}",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	m, err := cl.NewClient("").Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	writeBlocks(t, cl, m.ID, 1)

	var holders []string
	target := -1
	for i, addr := range cl.ProviderAddrs {
		if cl.ProviderService(addr).Store().Stats().Items == 1 {
			holders = append(holders, addr)
		} else {
			target = i
		}
	}
	if len(holders) != 2 || target < 0 {
		t.Fatalf("block stored on %v, want 2 of 3 providers", holders)
	}
	cl.KillProvider(holders[0])
	cl.PMService().State().MarkDead(holders[0])
	st, _ := refusingStores.Load(fmt.Sprint(target))
	st.(*refusingStore).armed.Store(true)

	rep, err := cl.RepairEngine().RunOnce(ctx)
	if err != nil || rep.Copies != 1 || rep.Failed != 0 {
		t.Fatalf("repair pass = %+v, %v; want 1 copy and no failure", rep, err)
	}
	if n := cl.ProviderService(cl.ProviderAddrs[target]).Store().Stats().Items; n != 1 {
		t.Errorf("repair target holds %d blocks, want 1", n)
	}
}

// TestHeartbeatExpiryRemovesCrashedProvider drives the liveness loop
// end to end over the real RPC path: a crashed provider stops
// heartbeating, the expiry ticker retires it, and allocation stops
// naming it — with no explicit MarkDead anywhere.
func TestHeartbeatExpiryRemovesCrashedProvider(t *testing.T) {
	const maxAge = 80 * time.Millisecond
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders:     4,
		BlockSize:         int64(blockSize),
		HeartbeatInterval: maxAge / 8,
		ExpireAfter:       maxAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	victim := cl.ProviderAddrs[2]
	cl.KillProvider(victim)

	deadline := time.Now().Add(5 * time.Second)
	for {
		dead := false
		for _, in := range cl.PMService().State().List() {
			if in.Addr == victim && !in.Alive {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed provider never expired from the membership")
		}
		time.Sleep(5 * time.Millisecond)
	}
	targets, err := cl.PMService().State().Allocate(8, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range targets.Addrs {
		if addr == victim {
			t.Fatal("expired provider still receiving allocations")
		}
	}
	// The survivors' heartbeats carry real store stats into List.
	for _, in := range cl.PMService().State().List() {
		if in.Addr != victim && !in.Alive {
			t.Errorf("heartbeating provider %s expired", in.Addr)
		}
	}
}

// TestFailureFeedbackMarksDead pins the failure-feedback satellite:
// when a read gives up on an unreachable provider, the client reports
// it and allocation stops handing it out — before any heartbeat expiry
// could fire (none is configured here).
func TestFailureFeedbackMarksDead(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		Replication:   2,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := writeBlocks(t, cl, m.ID, 4)

	victim := cl.ProviderAddrs[1]
	cl.KillProvider(victim)

	// Reads succeed via replica rotation. A single-extent read's
	// starting replica alternates per call, so a couple of reads of a
	// block replicated on the victim are guaranteed to attempt it —
	// and the failed attempt must trigger feedback.
	for i := 0; i < 4 && client.DeadReports() == 0; i++ {
		got, err := readBlob(ctx, client, m.ID, blob.NoVersion, int64(blockSize), int64(blockSize))
		if err != nil || !bytes.Equal(got, payload[blockSize:2*blockSize]) {
			t.Fatalf("read with one dead replica: %v", err)
		}
	}
	if client.DeadReports() == 0 {
		t.Fatal("client sent no failure feedback for the unreachable provider")
	}
	// The full range stays readable too.
	got, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("full read with one dead replica: %v", err)
	}
	// ...and the async MarkDead lands at the provider manager.
	deadline := time.Now().Add(5 * time.Second)
	for {
		dead := false
		for _, in := range cl.PMService().State().List() {
			if in.Addr == victim && !in.Alive {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failure feedback never reached the provider manager")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rate limiting: a repeat read hits the same dead provider again but
	// must not re-report it within the TTL.
	before := client.DeadReports()
	if _, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if client.DeadReports() != before {
		t.Errorf("repeat read re-reported the same provider within the TTL: %d -> %d",
			before, client.DeadReports())
	}
}

// TestDecommissionDrainThenRetire covers planned maintenance: a
// decommissioned provider leaves allocation immediately, a drain pass
// re-replicates everything it holds, it is retired only when nothing
// depends on it any more, and reads never skip a beat.
func TestDecommissionDrainThenRetire(t *testing.T) {
	const nBlocks = 6
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 5,
		Replication:   2,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := writeBlocks(t, cl, m.ID, nBlocks)

	// A typo'd address must fail loudly, not report a successful drain
	// of nothing.
	if _, err := cl.RepairEngine().Decommission(ctx, "no-such-provider"); err == nil {
		t.Fatal("decommission of unknown provider reported success")
	}

	victim := cl.ProviderAddrs[0]
	held := cl.ProviderService(victim).Store().Stats().Items
	if held == 0 {
		t.Fatal("victim holds no blocks")
	}
	rep, err := cl.RepairEngine().Decommission(ctx, victim)
	if err != nil {
		t.Fatalf("decommission: %v (report %+v)", err, rep)
	}
	if int64(rep.Copies) != held {
		t.Errorf("drain copied %d replicas, want exactly the %d the victim held", rep.Copies, held)
	}
	var vInfo *struct {
		alive, draining bool
	}
	for _, in := range cl.PMService().State().List() {
		if in.Addr == victim {
			vInfo = &struct{ alive, draining bool }{in.Alive, in.Draining}
		}
	}
	if vInfo == nil || vInfo.alive {
		t.Errorf("decommissioned provider not retired: %+v", vInfo)
	}
	// The retired provider's process is still up (planned maintenance:
	// the operator shuts it down after the drain) — but even hard-killing
	// it now loses nothing.
	cl.KillProvider(victim)
	got, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after drain-then-kill: %v", err)
	}
}

// TestOrphanAuditFindsStrays pins the inventory path (block reports
// over store key enumeration): a block copy that no placement accounts
// for shows up in the audit, and a clean deployment audits clean.
func TestOrphanAuditFindsStrays(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		Replication:   2,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}
	writeBlocks(t, cl, m.ID, 4)

	eng := cl.RepairEngine()
	_, orphans, err := eng.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for addr, n := range orphans {
		if n != 0 {
			t.Errorf("clean deployment reports %d orphans on %s", n, addr)
		}
	}

	// Plant a stray: a copy of a live block on a provider that is not
	// in its placement (the signature of a repair push whose relocation
	// was refused).
	var strayAddr string
	snap, err := pinBlob(ctx, client, m.ID, blob.NoVersion)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := snap.Locations(ctx, 0, int64(blockSize))
	if err != nil || len(locs) == 0 {
		t.Fatalf("locations: %v", err)
	}
	holders := map[string]bool{}
	for _, a := range locs[0].Providers {
		holders[a] = true
	}
	for _, a := range cl.ProviderAddrs {
		if !holders[a] {
			strayAddr = a
			break
		}
	}
	// Copy block 0's bytes under its real key onto the non-holder
	// (locs[0] is the write's seq-0 block, so match on Seq).
	srcSvc := cl.ProviderService(locs[0].Providers[0])
	keys, err := srcSvc.Store().Keys("b")
	if err != nil || len(keys) == 0 {
		t.Fatalf("source store keys: %v, %v", keys, err)
	}
	strayKey := ""
	for _, k := range keys {
		if bk, err := blob.ParseBlockKey(k); err == nil && bk.Seq == 0 {
			strayKey = k
			break
		}
	}
	if strayKey == "" {
		t.Fatalf("seq-0 block not found among %v", keys)
	}
	val, err := srcSvc.Store().Get(strayKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.ProviderService(strayAddr).Store().Put(strayKey, val); err != nil {
		t.Fatal(err)
	}

	_, orphans, err = eng.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if orphans[strayAddr] == 0 {
		t.Errorf("planted stray on %s not reported: %v", strayAddr, orphans)
	}
	total := 0
	for _, n := range orphans {
		total += n
	}
	if total != 1 {
		t.Errorf("audit reported %d orphans, want exactly the planted one: %v", total, orphans)
	}
}

// TestGCFreesRelocatedReplicas: a repair's copies take their places in
// their writes' placements, and version GC frees a block wherever its
// amended placement puts it: the copies of the hidden version's blocks
// go, the kept version's stay.
func TestGCFreesRelocatedReplicas(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		Replication:   2,
		BlockSize:     int64(blockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	client := cl.NewClient("")
	m, err := client.Create(ctx, int64(blockSize), 2)
	if err != nil {
		t.Fatal(err)
	}

	// Two published versions; v1's blocks are fully hidden by v2.
	v1Payload := bytes.Repeat([]byte{1}, 2*blockSize)
	v1, err := writeBlob(ctx, client, m.ID, 0, v1Payload)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := writeBlob(ctx, client, m.ID, 0, bytes.Repeat([]byte{2}, 2*blockSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitBlob(ctx, client, m.ID, v2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	before, err := cluster.HistoryOf(ctx, client.VM(), m.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Kill a provider and repair: the blocks it held move.
	victim := cl.ProviderAddrs[0]
	cl.KillProvider(victim)
	cl.PMService().State().MarkDead(victim)
	if _, err := cl.RepairEngine().RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := cluster.HistoryOf(ctx, client.VM(), m.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Where each version's blocks were copied: the addresses a block's
	// replica slot names now and did not before.
	type copied struct {
		key  blob.BlockKey
		addr string
	}
	moved := map[blob.Version][]copied{}
	for _, v := range []blob.Version{v1, v2} {
		was, _ := before.Desc(v)
		now, _ := after.Desc(v)
		for i, addr := range now.Replicas {
			if addr == victim {
				t.Errorf("version %d still places block %d on the dead %s: %v", v, i/2, victim, now.Replicas)
			}
			if lo := i / 2 * 2; !slices.Contains(was.Replicas[lo:lo+2], addr) {
				moved[v] = append(moved[v], copied{blob.BlockKey{Blob: m.ID, Nonce: now.Nonce, Seq: uint32(i / 2)}, addr})
			}
		}
	}
	if len(moved[v1]) == 0 {
		t.Fatal("repair moved no block of v1")
	}
	held := func(c copied) bool {
		_, err := cl.ProviderService(c.addr).Store().Get(c.key.String())
		return err == nil
	}
	for _, c := range append(moved[v1], moved[v2]...) {
		if !held(c) {
			t.Fatalf("the copy of %s that %s's placement names is not there", c.key, c.addr)
		}
	}

	// GC everything below v2: v1's hidden blocks go, their copies with
	// them; v2's survive.
	if _, err := client.GC(ctx, m.ID, v2); err != nil {
		t.Fatal(err)
	}
	for _, c := range moved[v1] {
		if held(c) {
			t.Errorf("the copy of GC'd block %s survived on %s", c.key, c.addr)
		}
	}
	for _, c := range moved[v2] {
		if !held(c) {
			t.Errorf("the copy of live block %s on %s was freed by GC", c.key, c.addr)
		}
	}
	// The current version still reads.
	got, err := readBlob(ctx, client, m.ID, blob.NoVersion, 0, 2*int64(blockSize))
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{2}, 2*blockSize)) {
		t.Fatalf("current version unreadable after GC: %v", err)
	}
}
