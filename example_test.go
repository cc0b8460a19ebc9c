package blobseer_test

import (
	"context"
	"fmt"
	"io"
	"log"

	"blobseer"
)

// ExampleBlob shows the handle-based write path: create a BLOB, stream
// into it through the write-behind writer, and publish concurrent
// offset writes — each one an immutable snapshot.
func ExampleBlob() {
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: 1 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, 1<<10, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Stream 3 KB through the shared write-behind engine: its 3 blocks
	// are one run, which publishes as one version at Close.
	w := b.NewWriter(ctx, blobseer.WriterOptions{Depth: 2})
	for i := 0; i < 3; i++ {
		if _, err := w.Write(make([]byte, 1<<10)); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Overwrite the middle block: a new differential snapshot.
	update := make([]byte, 1<<10)
	copy(update, "updated")
	v, err := b.Write(ctx, 1<<10, update)
	if err != nil {
		log.Fatal(err)
	}
	s, err := b.WaitPublished(ctx, v, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published v%d, size %d\n", s.Version(), s.Size())
	// Output: published v2, size 3072
}

// ExampleSnapshot shows the handle-based read path: pin the latest
// published snapshot once, then read with zero-copy ReadAt into a
// caller-owned buffer — no metadata round-trips per call — while the
// blob keeps moving underneath.
func ExampleSnapshot() {
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: 1 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	c := cl.NewClient("")
	b, err := c.CreateBlob(ctx, 1<<10, 1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := b.Append(ctx, []byte("immutable snapshot contents")); err != nil {
		log.Fatal(err)
	}

	s, err := b.Latest(ctx)
	if err != nil {
		log.Fatal(err)
	}
	// New versions published after the pin do not disturb this reader.
	overwrite := make([]byte, s.Size()) // reaches EOF: a legal overwrite
	copy(overwrite, "overwritten!")
	if _, err := b.Write(ctx, 0, overwrite); err != nil {
		log.Fatal(err)
	}

	buf := make([]byte, 9)
	if _, err := s.ReadAt(buf, 10); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	fmt.Printf("v%d bytes [10,19): %q\n", s.Version(), buf)

	// Sequential streaming over the same pin.
	r := s.NewReader(ctx, blobseer.ReaderOptions{Readahead: 2})
	defer r.Close()
	all, err := io.ReadAll(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream: %q\n", all)
	// Output:
	// v1 bytes [10,19): "snapshot "
	// stream: "immutable snapshot contents"
}
