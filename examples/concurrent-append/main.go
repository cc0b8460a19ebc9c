// Concurrent-append demonstrates the capability HDFS lacks entirely
// (Section V-F): many clients appending to the *same* file at the same
// time. A fleet of goroutines plays event-log shippers that each append
// batches of fixed-width records to one shared log — the paper's
// Figure 5 access pattern. A batch is rarely a whole number of blocks,
// so most appends land on an unaligned end: the version manager still
// fixes where each one lands, every record survives, and each block a
// shipper's stream commits publishes a snapshot a reader can pin.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"blobseer"
)

const (
	shippers  = 16
	batches   = 8
	blockSize = 4 << 10
	recLen    = 32 // fixed-width records
)

// recsIn is how many records shipper s puts in its batch b: from 40 to
// 295, so that few batches fill whole blocks.
func recsIn(s, b int) int { return 40 + (s*31+b*17)%256 }

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	cl, err := blobseer.Start(blobseer.Config{
		DataProviders: 8,
		MetaProviders: 2,
		BlockSize:     blockSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	// Create the shared log once.
	setup, err := cl.NewBSFS("")
	if err != nil {
		log.Fatal(err)
	}
	w, err := setup.Create(ctx, "/logs/events.log", true)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Every shipper gets its own BSFS client and appends batches of
	// records. No shipper coordinates with any other.
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total int64
	for s := 0; s < shippers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fsys, err := cl.NewBSFS("")
			if err != nil {
				log.Fatal(err)
			}
			for b := 0; b < batches; b++ {
				a, err := fsys.Append(ctx, "/logs/events.log")
				if err != nil {
					log.Fatal(err)
				}
				n, err := a.Write(batch(s, b))
				if err != nil {
					log.Fatal(err)
				}
				if err := a.Close(); err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				total += int64(n)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Verify: every record of every shipper is present exactly once.
	// The verification reader drops to the handle API — pin the latest
	// snapshot once and stream it through the shared readahead engine;
	// shippers still publishing new versions cannot disturb the pin.
	bh, err := setup.OpenBlob(ctx, "/logs/events.log")
	if err != nil {
		log.Fatal(err)
	}
	snap, err := bh.Latest(ctx)
	if err != nil {
		log.Fatal(err)
	}
	r := snap.NewReader(ctx, blobseer.ReaderOptions{Readahead: 2})
	defer r.Close()
	counts := make(map[int]int)
	lines := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var s, b, rec int
		if _, err := fmt.Sscanf(sc.Text(), "shipper=%d batch=%d rec=%d", &s, &b, &rec); err != nil {
			log.Fatalf("corrupt record %q: %v", sc.Text(), err)
		}
		counts[s]++
		lines++
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	want := 0
	for s := 0; s < shippers; s++ {
		n := 0
		for b := 0; b < batches; b++ {
			n += recsIn(s, b)
		}
		if counts[s] != n {
			log.Fatalf("shipper %d: want %d records, got %d", s, n, counts[s])
		}
		want += n
	}
	if lines != want {
		log.Fatalf("lost records: want %d lines, got %d", want, lines)
	}

	v, err := setup.Versions(ctx, "/logs/events.log")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d shippers appended %d records (%d bytes) concurrently in %v\n",
		shippers, lines, total, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregated append throughput: %.1f MB/s\n",
		float64(total)/(1<<20)/elapsed.Seconds())
	fmt.Printf("every committed block is a snapshot: %d published versions, zero lost records\n", v)
}

// batch renders one batch of fixed-width records.
func batch(shipper, b int) []byte {
	var sb strings.Builder
	sb.Grow(recsIn(shipper, b) * recLen)
	for r := 0; r < recsIn(shipper, b); r++ {
		rec := fmt.Sprintf("shipper=%02d batch=%02d rec=%03d", shipper, b, r)
		sb.WriteString(rec)
		sb.WriteString(strings.Repeat(" ", recLen-1-len(rec)))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}
