package cluster

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"

	"blobseer/internal/core"
)

// TestReadsSurviveADeadMetadataDHT: once a blob and a BSFS file are
// written, every metadata provider dies. A fresh client still pins and
// reads every byte of both, through ReadAt, through a streamed reader
// and through Locations: each write's descriptor names its blocks'
// replicas, so no read asks the metadata DHT for anything.
func TestReadsSurviveADeadMetadataDHT(t *testing.T) {
	const bs = 4096
	cl, err := StartBlobSeer(Config{DataProviders: 4, MetaProviders: 2, BlockSize: bs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	data := make([]byte, 16*bs)
	for i := range data {
		data[i] = byte(i*31 + i/bs)
	}
	b, err := cl.NewClient("").CreateBlob(ctx, bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	fsys, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/in/file", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[:15*bs+100]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, addr := range cl.MetaAddrs {
		cl.node(addr).Kill()
	}

	fresh, err := cl.NewClient("").OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fresh.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt with every metadata provider dead: %v", err)
	}
	r := s.NewReader(ctx, core.ReaderOptions{Readahead: 2})
	streamed, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(streamed, data) {
		t.Fatalf("a streamed read with every metadata provider dead: %d bytes, %v", len(streamed), err)
	}
	locs, err := s.Locations(ctx, 0, s.Size())
	if err != nil || len(locs) != 16 {
		t.Fatalf("Locations with every metadata provider dead: %d locations, %v", len(locs), err)
	}
	for _, l := range locs {
		if len(l.Providers) != 2 || len(l.Hosts) != 2 {
			t.Errorf("block at %d located on %v (hosts %v), want 2 replicas", l.Off, l.Providers, l.Hosts)
		}
	}

	ffs, err := cl.NewBSFS("")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ffs.Open(ctx, "/in/file")
	if err != nil {
		t.Fatal(err)
	}
	file, err := io.ReadAll(fr)
	fr.Close()
	if err != nil || !bytes.Equal(file, data[:15*bs+100]) {
		t.Fatalf("a BSFS read with every metadata provider dead: %d bytes, %v", len(file), err)
	}
	flocs, err := ffs.Locations(ctx, "/in/file", 0, int64(len(file)))
	if err != nil || len(flocs) != 16 {
		t.Fatalf("BSFS locations with every metadata provider dead: %d, %v", len(flocs), err)
	}
}

// TestRepairWithADeadMetadataDHT: a data provider and every metadata
// provider die, and a repair pass still runs — it reads each block's
// placement from the version manager and records its copies there. A
// snapshot pinned before the repair then reads every block, those whose
// original replicas have all died included, and a fresh client locates
// each block on its replicas as the repair left them.
func TestRepairWithADeadMetadataDHT(t *testing.T) {
	const bs = 4096
	cl, err := StartBlobSeer(Config{DataProviders: 4, MetaProviders: 2, BlockSize: bs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	data := make([]byte, 16*bs)
	for i := range data {
		data[i] = byte(i*7 + i/bs)
	}
	b, err := cl.NewClient("").CreateBlob(ctx, bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	pinned, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before, err := pinned.Locations(ctx, 0, pinned.Size())
	if err != nil {
		t.Fatal(err)
	}
	// The second provider to die shares a block with the first, so that
	// block's original replicas all die.
	victim, partner := cl.ProviderAddrs[0], ""
	for _, l := range before {
		if i := slices.Index(l.Providers, victim); i >= 0 {
			partner = l.Providers[1-i]
		}
	}
	if partner == "" {
		t.Fatalf("%s holds no block: %+v", victim, before)
	}

	for _, addr := range cl.MetaAddrs {
		cl.node(addr).Kill()
	}
	cl.KillProvider(victim)
	cl.PMService().State().MarkDead(victim)
	rep, err := cl.RepairEngine().RunOnce(ctx)
	if err != nil || rep.Copies == 0 || rep.Failed != 0 {
		t.Fatalf("a repair pass with every metadata provider dead: %+v, %v", rep, err)
	}
	cl.KillProvider(partner)
	cl.PMService().State().MarkDead(partner)

	got := make([]byte, len(data))
	if _, err := pinned.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, data) {
		t.Fatalf("a snapshot pinned before the repair read %v", err)
	}
	// It asked where the blocks whose replicas all failed live now, once
	// each; a second read asks no more.
	asked := cl.VMService().Metrics().Counter("ops_replicas")
	if n := asked.Value(); n == 0 {
		t.Error("the pinned read asked the version manager for no block's replicas")
	}
	n := asked.Value()
	if _, err := pinned.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, data) || asked.Value() != n {
		t.Fatalf("a second read of the pinned snapshot: %v, after %d more Replicas calls", err, asked.Value()-n)
	}
	fresh, err := cl.NewClient("").OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	s, err := fresh.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Locations(ctx, 0, s.Size())
	if err != nil || len(after) != len(before) {
		t.Fatalf("a fresh client located %d blocks, %v; want %d", len(after), err, len(before))
	}
	moved := 0
	for i, l := range after {
		if slices.Contains(l.Providers, victim) || len(l.Providers) != 2 {
			t.Errorf("block at %d located on %v after %s was repaired away", l.Off, l.Providers, victim)
		}
		if slices.Contains(before[i].Providers, victim) {
			moved++
			if !slices.Contains(l.Providers, before[i].Providers[1-slices.Index(before[i].Providers, victim)]) {
				t.Errorf("block at %d lost its surviving replica: %v -> %v", l.Off, before[i].Providers, l.Providers)
			}
		}
	}
	if moved != rep.Copies {
		t.Errorf("%d blocks were on %s, the repair made %d copies", moved, victim, rep.Copies)
	}
}
