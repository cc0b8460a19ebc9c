package bench

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"blobseer/internal/store"
	"blobseer/internal/util"
)

// Tiered-store ablation for BENCH_tiering.json, run on REAL stores (the
// tiering win is a property of the implementation, like the WAL group
// commit — not something the fluid simulator should assert). Four arms:
//
//	fs-hot          plain FSStore reads: the single-tier baseline
//	tiered-hot      Tiered(fs, fs) with everything hot: the engine's
//	                read-path overhead must stay within a few percent
//	                of the plain backend (acceptance: >= 90%)
//	tiered-cold     after DemoteNow moved every block cold: each read
//	                pays the cold tier + promotion exactly once, and
//	                every byte must come back intact (readable == 1.0)
//	tiered-promoted re-reads after promotion: back at the hot rate
//
// Each arm reads the full block set `rounds` times; the report keeps
// the per-round series and the best-of summary ratios (best-of damps
// scheduler noise on shared CI machines).

// blockFill returns block i's deterministic payload, so the cold arm
// can verify promotion returns the exact bytes that were written.
func blockFill(i, size int) []byte {
	pat := []byte(fmt.Sprintf("tier-block-%d|", i))
	return bytes.Repeat(pat, size/len(pat)+1)[:size]
}

// readAll reads every block once and returns the aggregate throughput
// in MB/s, plus how many blocks came back bit-exact.
func readAll(st store.Store, blocks, size int) (mbps float64, intact int, err error) {
	start := time.Now()
	for i := 0; i < blocks; i++ {
		val, err := st.Get(fmt.Sprintf("b%08d", i))
		if err != nil {
			return 0, intact, fmt.Errorf("read block %d: %w", i, err)
		}
		if bytes.Equal(val, blockFill(i, size)) {
			intact++
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(blocks*size) / float64(util.MB) / elapsed, intact, nil
}

func fillStore(st store.Store, blocks, size int) error {
	for i := 0; i < blocks; i++ {
		if err := st.Put(fmt.Sprintf("b%08d", i), blockFill(i, size)); err != nil {
			return err
		}
	}
	return nil
}

// TieringBench is the BENCH_tiering.json document.
type TieringBench struct {
	// Throughput holds one read-MB/s series per arm, X = round.
	Throughput []Series `json:"throughput"`
	// HotRatio is best tiered-hot MB/s over best fs-hot MB/s — the
	// tiered engine's hot-path overhead (acceptance: >= 0.9).
	HotRatio float64 `json:"hot_ratio"`
	// Readable is the fraction of demoted blocks whose post-demotion
	// read returned bit-exact data via promotion (must be 1.0).
	Readable float64 `json:"readable"`
	// PromotedRatio is best promoted-re-read MB/s over best fs-hot
	// MB/s: promotion restores the hot path.
	PromotedRatio float64 `json:"promoted_ratio"`
	Blocks        int     `json:"blocks"`
	BlockBytes    int     `json:"block_bytes"`
	Demotions     int64   `json:"demotions"`
	Promotions    int64   `json:"promotions"`
}

func best(s Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// AblationTiering measures the four arms over blocks x size bytes with
// `rounds` read passes per arm.
func AblationTiering(blocks, size, rounds int) (TieringBench, error) {
	r := TieringBench{Blocks: blocks, BlockBytes: size}

	// Arm 1 store: plain fs baseline.
	fsDir, err := os.MkdirTemp("", "bench-tier-fs-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(fsDir)
	fsStore, err := store.NewFSStore(fsDir, false)
	if err != nil {
		return r, err
	}
	defer fsStore.Close()

	// Arms 2-4 store: the tiered engine over two fs backends.
	hotDir, err := os.MkdirTemp("", "bench-tier-hot-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(hotDir)
	coldDir, err := os.MkdirTemp("", "bench-tier-cold-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(coldDir)
	hot, err := store.NewFSStore(hotDir, false)
	if err != nil {
		return r, err
	}
	cold, err := store.NewFSStore(coldDir, false)
	if err != nil {
		hot.Close()
		return r, err
	}
	ti := store.NewTiered(hot, cold, store.TierOptions{})
	defer ti.Close()

	// Fill both stores, then warm both with one untimed pass, THEN run
	// the timed rounds interleaved arm-by-arm: dirty-page writeback, GC
	// pauses and scheduler noise hit both arms equally instead of
	// landing on whichever arm happens to run last.
	if err := fillStore(fsStore, blocks, size); err != nil {
		return r, err
	}
	if err := fillStore(ti, blocks, size); err != nil {
		return r, err
	}
	if _, _, err := readAll(fsStore, blocks, size); err != nil {
		return r, err
	}
	if _, _, err := readAll(ti, blocks, size); err != nil {
		return r, err
	}
	fsHot := Series{Name: "fs-hot", XLabel: "round", YLabel: "read MB/s"}
	tieredHot := Series{Name: "tiered-hot", XLabel: "round", YLabel: "read MB/s"}
	for round := 0; round < rounds; round++ {
		mbps, _, err := readAll(fsStore, blocks, size)
		if err != nil {
			return r, err
		}
		fsHot.Points = append(fsHot.Points, Point{X: float64(round), Y: mbps})
		mbps, _, err = readAll(ti, blocks, size)
		if err != nil {
			return r, err
		}
		tieredHot.Points = append(tieredHot.Points, Point{X: float64(round), Y: mbps})
	}

	// Demote everything, then read it all back: promotion must return
	// every byte.
	demoted, err := ti.DemoteNow()
	if err != nil {
		return r, err
	}
	if demoted != blocks {
		return r, fmt.Errorf("demoted %d of %d blocks", demoted, blocks)
	}
	if hs, _ := ti.TierStats(); hs.Items != 0 {
		return r, fmt.Errorf("hot tier still holds %d blocks after demote-all", hs.Items)
	}
	tieredCold := Series{Name: "tiered-cold", XLabel: "round", YLabel: "read MB/s"}
	mbps, intact, err := readAll(ti, blocks, size)
	if err != nil {
		return r, err
	}
	tieredCold.Points = append(tieredCold.Points, Point{X: 0, Y: mbps})
	r.Readable = float64(intact) / float64(blocks)

	tieredProm := Series{Name: "tiered-promoted", XLabel: "round", YLabel: "read MB/s"}
	for round := 0; round < rounds; round++ {
		mbps, _, err := readAll(ti, blocks, size)
		if err != nil {
			return r, err
		}
		tieredProm.Points = append(tieredProm.Points, Point{X: float64(round), Y: mbps})
	}

	c := ti.Counters()
	r.Demotions = c.Demotions
	r.Promotions = c.Promotions
	r.Throughput = []Series{fsHot, tieredHot, tieredCold, tieredProm}
	if b := best(fsHot); b > 0 {
		r.HotRatio = best(tieredHot) / b
		r.PromotedRatio = best(tieredProm) / b
	}
	return r, nil
}

// TieringBenchRun runs the ablation at report scale; quick shrinks it
// for CI smoke runs.
func TieringBenchRun(quick bool) (TieringBench, error) {
	blocks, size, rounds := 64, int(util.MB), 5
	if quick {
		blocks, size, rounds = 32, 256*int(util.KB), 5
	}
	return AblationTiering(blocks, size, rounds)
}

// Check validates the acceptance properties the ablation pins: every
// demoted block readable via promotion, and the tiered hot path within
// 10% of the plain fs backend.
func (r TieringBench) Check() error {
	if r.Readable < 1.0 {
		return fmt.Errorf("only %.2f of demoted blocks readable after demotion", r.Readable)
	}
	if r.HotRatio < 0.9 {
		return fmt.Errorf("tiered hot-path throughput is %.2fx the plain fs backend, want >= 0.9", r.HotRatio)
	}
	return nil
}
