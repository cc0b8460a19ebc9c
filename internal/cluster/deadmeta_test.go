package cluster

import (
	"bytes"
	"context"
	"io"
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
