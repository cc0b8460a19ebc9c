// Versioned-branching replays the exact BLOB lifecycle of the paper's
// Figure 1 against a live deployment — append four blocks, overwrite
// the middle two, append one more — and shows what Section VI-A
// promises versioning buys a Map/Reduce workflow: every snapshot stays
// readable while new versions are produced, so a pipeline stage can
// rewrite part of a dataset while another stage still consumes the
// original, with only the differential patch stored.
//
// It drives the handle-based client API: one Blob handle owns the
// writes, and each version is pinned once as a Snapshot whose
// ReadAt fills caller-owned buffers with zero metadata round-trips.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"

	"blobseer"
)

const blockSize = 64 << 10 // the paper's 64 MB, laptop-sized

// block builds one full block filled with a label byte.
func block(label byte) []byte { return bytes.Repeat([]byte{label}, blockSize) }

// summarize renders a snapshot as one letter per block, reading
// through the pinned handle into a reused buffer.
func summarize(s *blobseer.Snapshot, buf []byte) string {
	buf = buf[:s.Size()]
	if _, err := s.ReadAt(buf, 0); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	var out []byte
	for off := 0; off < len(buf); off += blockSize {
		out = append(out, buf[off])
	}
	return string(out)
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	cl, err := blobseer.Start(blobseer.Config{DataProviders: 6, BlockSize: blockSize})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	// The low-level BLOB API: this is the layer below BSFS. CreateBlob
	// returns a handle that pins the blob's static metadata once.
	client := cl.NewClient("")
	b, err := client.CreateBlob(ctx, blockSize, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 1(a): append the first four blocks to an empty BLOB.
	v1, err := b.Append(ctx,
		bytes.Join([][]byte{block('A'), block('B'), block('C'), block('D')}, nil))
	if err != nil {
		log.Fatal(err)
	}

	// Figure 1(b): overwrite the second and third block — a write at a
	// random offset, which HDFS forbids outright.
	v2, err := b.Write(ctx, blockSize,
		bytes.Join([][]byte{block('x'), block('y')}, nil))
	if err != nil {
		log.Fatal(err)
	}

	// Figure 1(c): append one more block.
	v3, err := b.Append(ctx, block('E'))
	if err != nil {
		log.Fatal(err)
	}

	// Every snapshot remains readable: the "branch" a slow pipeline
	// stage pinned at v1 still sees is byte-identical to the original.
	// Snapshot pins (version, size) once, and ReadAt reuses one
	// caller-owned buffer throughout.
	buf := make([]byte, 5*blockSize)
	for _, v := range []blobseer.Version{v1, v2, v3} {
		s, err := b.Snapshot(ctx, v)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot v%d: blocks [%s] (%d bytes)\n", s.Version(), summarize(s, buf), s.Size())
	}

	// Only differential patches were stored: 4 + 2 + 1 blocks, not
	// 4 + 4 + 5 — count what the providers actually hold.
	var blocks int
	for _, addr := range cl.ProviderAddrs {
		st := cl.ProviderService(addr).Store().Stats()
		blocks += int(st.Items)
	}
	fmt.Printf("providers store %d blocks for 3 snapshots spanning %d logical blocks\n", blocks, 4+4+5)

	// A stage that went wrong is undone by branching from an old
	// snapshot: re-write the original middle blocks on top of v3,
	// reading them straight out of the pinned v1 snapshot.
	s1, err := b.Snapshot(ctx, v1)
	if err != nil {
		log.Fatal(err)
	}
	orig := make([]byte, 2*blockSize)
	if _, err := s1.ReadAt(orig, blockSize); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	v4, err := b.Write(ctx, blockSize, orig)
	if err != nil {
		log.Fatal(err)
	}
	s4, err := b.WaitPublished(ctx, v4, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollback  v%d: blocks [%s] — middle blocks restored from v%d\n", s4.Version(), summarize(s4, buf), v1)

	// Finally, reclaim history: garbage-collect everything below the
	// rollback snapshot. The sweep is differential-aware — blocks the
	// kept snapshot still reads through shared subtrees survive.
	st, err := client.GC(ctx, b.ID(), v4)
	if err != nil {
		log.Fatal(err)
	}
	blocksAfter := 0
	for _, addr := range cl.ProviderAddrs {
		blocksAfter += int(cl.ProviderService(addr).Store().Stats().Items)
	}
	fmt.Printf("gc below v%d: freed %d tree nodes and %d block replicas; providers now hold %d blocks\n",
		v4, st.NodesFreed, st.BlocksFreed, blocksAfter)
	if _, err := b.Snapshot(ctx, v1); err != nil {
		fmt.Printf("pinning pruned v%d now fails as specified: %v\n", v1, err)
	}
	if got := summarize(s4, buf); got != "ABCDE" {
		log.Fatalf("kept snapshot must survive GC intact: %q", got)
	}
	fmt.Printf("kept      v%d: blocks [%s] — intact after garbage collection\n", v4, summarize(s4, buf))
}
