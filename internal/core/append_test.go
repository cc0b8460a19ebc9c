package core_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/util"
)

// stampedRecord returns n 8-byte words, word i holding record rec and
// index i, so a reader can tell where every word of every record went.
func stampedRecord(rec uint32, n int) []byte {
	p := make([]byte, 8*n)
	for i := range n {
		binary.BigEndian.PutUint64(p[8*i:], uint64(rec)<<32|uint64(i))
	}
	return p
}

// TestConcurrentAppendsOfAnyLength is the paper's Fig 5 workload with
// records of any length: 8 clients append onto one blob of 64 KB
// blocks, the even ones through append-mode streams, the odd ones with
// raw Blob.Append, so almost every append lands on an unaligned end.
// No append may fail, every record's words must appear exactly once and
// in order, and a raw record, one append, must be contiguous (a
// stream's record may be split where its blocks were flushed).
func TestConcurrentAppendsOfAnyLength(t *testing.T) {
	const (
		clients = 8
		records = 20 // per client
		bs      = 64 * util.KB
	)
	cl := startCluster(t, cluster.Config{DataProviders: 4, MetaProviders: 2, BlockSize: bs})
	ctx := context.Background()
	m, err := cl.NewClient("").Create(ctx, bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]int, clients*records+1) // words of record rec, numbered from 1
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := cl.NewClient("").OpenBlob(ctx, m.ID)
			if err != nil {
				errs <- err
				return
			}
			rng := util.NewSplitMix64(uint64(100 + i))
			for k := range records {
				rec := uint32(i*records + k + 1)
				lengths[rec] = 1 + rng.Intn(25000)
				data := stampedRecord(rec, lengths[rec])
				if i%2 == 1 {
					_, err = b.Append(ctx, data)
				} else {
					w := b.NewWriter(ctx, core.WriterOptions{Append: true, Depth: 2})
					for len(data) > 0 && err == nil {
						n := min(len(data), 1+rng.Intn(3*int(bs)))
						_, err = w.Write(data[:n])
						data = data[n:]
					}
					if cerr := w.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d, record %d: %w", i, rec, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	b, err := cl.NewClient("").OpenBlob(ctx, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range lengths {
		total += 8 * n
	}
	if s.Size() != int64(total) {
		t.Fatalf("blob holds %d bytes, the acknowledged records %d", s.Size(), total)
	}
	got := make([]byte, total)
	if _, err := s.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	next := make([]int, len(lengths))  // the index each record's next word must carry
	first := make([]int, len(lengths)) // the word where each record starts
	for p := 0; p < total/8; p++ {
		w := binary.BigEndian.Uint64(got[8*p:])
		rec, idx := int(w>>32), int(uint32(w))
		if rec < 1 || rec >= len(lengths) || idx != next[rec] {
			t.Fatalf("word %d holds record %d index %d, out of place", p, rec, idx)
		}
		if idx == 0 {
			first[rec] = p
		}
		if (rec-1)/records%2 == 1 && p != first[rec]+idx {
			t.Fatalf("raw record %d is split: its word %d is at %d, its first at %d", rec, idx, p, first[rec])
		}
		next[rec]++
	}
	for rec := 1; rec < len(lengths); rec++ {
		if next[rec] != lengths[rec] {
			t.Errorf("record %d: %d of its %d words landed", rec, next[rec], lengths[rec])
		}
	}
}
