// Command figures regenerates the paper's evaluation figures (Section
// V) on the simulated Grid'5000 testbed and prints each series as a
// table. The flags select a figure and optionally shrink the sweep for
// a quick run:
//
//	figures                  # every figure, full sweeps
//	figures -fig 4           # only Figure 4
//	figures -fig 6b -quick   # Figure 6b, coarse sweep
//	figures -ablations       # the design-choice ablations of DESIGN.md
//	figures -recovery        # crash-recovery ablation, BENCH_recovery.json
//	figures -vmshard         # control-plane sharding + group commit, BENCH_vmshard.json
//	figures -tiering         # hot/cold store tiering ablation, BENCH_tiering.json
//	                         # (the three combine: -recovery -vmshard -tiering runs all of them)
//	figures -selftest        # live-stack sanity check before a long sweep
//
// Expected output shapes are documented in EXPERIMENTS.md; the shape
// regression tests live in internal/bench.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"blobseer"
	"blobseer/internal/bench"
)

// selftest deploys the real (in-process) stack and drives one
// handle-based round trip — CreateBlob, write-behind streaming,
// pinned-snapshot ReadAt — so a broken client surface fails fast
// instead of twenty minutes into a figure sweep.
func selftest() error {
	const block = 64 << 10
	cl, err := blobseer.Start(blobseer.Config{DataProviders: 4, BlockSize: block})
	if err != nil {
		return err
	}
	defer cl.Stop()
	ctx := context.Background()
	b, err := cl.NewClient("").CreateBlob(ctx, block, 1)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("figures-selftest "), 2*block/16)
	w := b.NewWriter(ctx, blobseer.WriterOptions{Depth: 2})
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	s, err := b.Latest(ctx)
	if err != nil {
		return err
	}
	back := make([]byte, s.Size())
	if _, err := s.ReadAt(back, 0); err != nil && err != io.EOF {
		return err
	}
	if !bytes.Equal(back, payload) {
		return fmt.Errorf("selftest: snapshot read mismatch (%d bytes)", len(back))
	}
	fmt.Printf("selftest ok: v%d, %d bytes round-tripped through Blob/Snapshot handles\n",
		s.Version(), s.Size())
	return nil
}

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 3a | 3b | 4 | 5 | 6a | 6b | all")
		quick     = flag.Bool("quick", false, "coarse sweeps (3 points per curve)")
		ablations = flag.Bool("ablations", false, "run the ablation experiments instead of the figures")
		recovery  = flag.Bool("recovery", false, "run the crash-recovery ablation and write BENCH_recovery.json")
		vmshard   = flag.Bool("vmshard", false, "run the control-plane sharding ablation and write BENCH_vmshard.json")
		tiering   = flag.Bool("tiering", false, "run the hot/cold store tiering ablation and write BENCH_tiering.json")
		check     = flag.Bool("selftest", false, "run a live-stack handle-API sanity check and exit")
	)
	flag.Parse()

	if *check {
		if err := selftest(); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		return
	}

	die := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", what, err)
			os.Exit(1)
		}
	}
	writeReport := func(path string, report any) {
		die("write report", bench.WriteJSON(path, report))
		fmt.Println("wrote", path)
	}
	if *recovery {
		r, err := bench.CrashRecoveryBench(*quick)
		die("recovery bench", err)
		fmt.Println(bench.Table("Crash recovery — publication-line durability (vmanager kill+restart)", r.Durability))
		fmt.Println(bench.Table("Crash recovery — cold replay time vs log length", r.RecoveryTime))
		fmt.Println(bench.Table("Crash recovery — fsync policy throughput cost", r.FsyncCost))
		writeReport("BENCH_recovery.json", r)
	}
	if *vmshard {
		r, err := bench.VMShardScalingBench(*quick)
		die("vmshard bench", err)
		fmt.Println(bench.Table("Control-plane sharding — publish throughput vs shard count (8 writers)", r.ShardScaling))
		fmt.Println(bench.Table("WAL group commit — durable publish rate vs concurrent writers", r.GroupCommit))
		writeReport("BENCH_vmshard.json", r)
	}
	if *tiering {
		r, err := bench.TieringBenchRun(*quick)
		die("tiering bench", err)
		fmt.Println(bench.Table("Store tiering — read throughput per arm (fs baseline, tiered hot, cold+promote, promoted)", r.Throughput))
		fmt.Printf("hot_ratio=%.3f promoted_ratio=%.3f readable=%.3f demotions=%d promotions=%d\n",
			r.HotRatio, r.PromotedRatio, r.Readable, r.Demotions, r.Promotions)
		writeReport("BENCH_tiering.json", r)
		die("tiering acceptance", r.Check())
	}
	if *recovery || *vmshard || *tiering {
		return
	}

	if *ablations {
		fmt.Println(bench.Table("Ablation — placement strategy (Fig-4 workload, 150 readers)",
			bench.AblationPlacement(150)))
		fmt.Println(bench.Table("Ablation — metadata providers (Fig-4 workload, 150 readers)",
			bench.AblationMetadataProviders(150, []int{1, 5, 10, 20})))
		fmt.Println(bench.Table("Ablation — version-manager service time (Fig-5 workload, 150 appenders)",
			bench.AblationVMService(150, []float64{0.5, 2, 10, 50})))
		fmt.Println(bench.Table("Ablation — block size (4 GB single writer)",
			bench.AblationBlockSize(4, []int{16, 32, 64, 128})))
		fmt.Println(bench.Table("Ablation — replication level (4 GB single writer)",
			bench.AblationReplication(4, []int{1, 2, 3})))
		fmt.Println(bench.Table("Ablation — self-healing repair (R=3, 64 blocks, 16 providers, kill 1 then 3)",
			bench.AblationRepair(64, 16)))
		return
	}

	var (
		gbs     = []float64{1, 2, 4, 6, 8, 10, 12, 14, 16}
		clients = []int{1, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250}
		mappers = []int{50, 25, 10, 5, 2, 1}
		inputs  = []float64{6.4, 8.0, 9.6, 11.2, 12.8}
	)
	if *quick {
		gbs = []float64{1, 8, 16}
		clients = []int{1, 100, 250}
		mappers = []int{50, 5, 1}
		inputs = []float64{6.4, 9.6, 12.8}
	}

	runs := []struct {
		id    string
		title string
		run   func() []bench.Series
	}{
		{"3a", "Figure 3(a) — single writer, single file: throughput vs file size", func() []bench.Series { return bench.Fig3a(gbs) }},
		{"3b", "Figure 3(b) — load balance: Manhattan distance to the ideal layout", func() []bench.Series { return bench.Fig3b(gbs) }},
		{"4", "Figure 4 — concurrent readers, shared file: per-client throughput", func() []bench.Series { return bench.Fig4(clients) }},
		{"5", "Figure 5 — concurrent appenders, shared file: aggregated throughput", func() []bench.Series { return bench.Fig5(clients) }},
		{"6a", "Figure 6(a) — RandomTextWriter: job completion time vs per-mapper output", func() []bench.Series { return bench.Fig6a(mappers) }},
		{"6b", "Figure 6(b) — distributed grep: job completion time vs input size", func() []bench.Series { return bench.Fig6b(inputs) }},
	}

	matched := false
	for _, r := range runs {
		if *fig != "all" && *fig != r.id {
			continue
		}
		matched = true
		fmt.Println(bench.Table(r.title, r.run()))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q (want 3a, 3b, 4, 5, 6a, 6b or all)\n", *fig)
		os.Exit(2)
	}
}
