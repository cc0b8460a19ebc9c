package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
// Each arm reads the full block set `rounds` times. The report keeps
// the per-round series and, as values, the best-of summary ratios
// (best-of damps scheduler noise on shared CI machines) with the counts
// behind them:
//
//	hot_ratio       best tiered-hot MB/s over best fs-hot MB/s (min 0.9)
//	readable        share of demoted blocks read back bit-exact through
//	                promotion (min 1)
//	promoted_ratio  best tiered-promoted MB/s over best fs-hot MB/s:
//	                promotion restores the hot path
//	blocks, block_bytes, demotions, promotions

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
func AblationTiering(blocks, size, rounds int) (Report, error) {
	var r Report
	dir, err := os.MkdirTemp("", "bench-tier-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	// Arm 1 store: plain fs baseline.
	fsStore, err := store.NewFSStore(filepath.Join(dir, "fs"), false)
	if err != nil {
		return r, err
	}
	defer fsStore.Close()

	// Arms 2-4 store: the tiered engine over two fs backends.
	hot, err := store.NewFSStore(filepath.Join(dir, "hot"), false)
	if err != nil {
		return r, err
	}
	cold, err := store.NewFSStore(filepath.Join(dir, "cold"), false)
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
	readable := float64(intact) / float64(blocks)

	tieredProm := Series{Name: "tiered-promoted", XLabel: "round", YLabel: "read MB/s"}
	for round := 0; round < rounds; round++ {
		mbps, _, err := readAll(ti, blocks, size)
		if err != nil {
			return r, err
		}
		tieredProm.Points = append(tieredProm.Points, Point{X: float64(round), Y: mbps})
	}

	c := ti.Counters()
	r.Sections = []Section{{
		Title:  "Store tiering — read throughput per arm (fs baseline, tiered hot, cold+promote, promoted)",
		Series: []Series{fsHot, tieredHot, tieredCold, tieredProm},
	}}
	r.Values = map[string]float64{
		"hot_ratio": 0, "promoted_ratio": 0, "readable": readable,
		"blocks": float64(blocks), "block_bytes": float64(size),
		"demotions": float64(c.Demotions), "promotions": float64(c.Promotions),
	}
	if b := best(fsHot); b > 0 {
		r.Values["hot_ratio"] = best(tieredHot) / b
		r.Values["promoted_ratio"] = best(tieredProm) / b
	}
	r.Min = map[string]float64{"readable": 1, "hot_ratio": 0.9}
	return r, nil
}

// TieringReport runs the ablation at report scale for
// BENCH_tiering.json; quick shrinks it for CI smoke runs.
func TieringReport(quick bool) (Report, error) {
	if quick {
		return AblationTiering(32, 256*int(util.KB), 5)
	}
	return AblationTiering(64, int(util.MB), 5)
}
