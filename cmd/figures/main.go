// Command figures regenerates the paper's evaluation figures (Section
// V) on the simulated Grid'5000 testbed and prints each series as a
// table. The flags select a figure and optionally shrink the sweep for
// a quick run:
//
//	figures                  # every figure, full sweeps
//	figures -fig 4           # only Figure 4
//	figures -fig 6b -quick   # Figure 6b, coarse sweep
//	figures -ablations       # the design-choice ablations (internal/bench/ablation.go)
//	figures -recovery        # crash-recovery ablation, BENCH_recovery.json
//	figures -vmshard         # control-plane sharding + group commit, BENCH_vmshard.json
//	                         # (the two combine: -recovery -vmshard runs both)
//	figures -selftest        # live-stack sanity check before a long sweep
//
// The figures and ablations are simulated and deterministic: every run
// prints the same digits (-recovery and -vmshard run the real stack and
// do not). Their sweeps are bench.Figures and bench.Ablations;
// internal/bench's golden test pins what -quick and -ablations print,
// and its shape tests pin the expected curves.
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
	reports := []struct {
		name string
		on   bool
		run  func(quick bool) (bench.Report, error)
	}{
		{"recovery", *recovery, bench.RecoveryReport},
		{"vmshard", *vmshard, bench.VMShardReport},
	}
	ran := false
	for _, r := range reports {
		if !r.on {
			continue
		}
		ran = true
		rep, err := r.run(*quick)
		die(r.name+" bench", err)
		fmt.Print(rep)
		path := "BENCH_" + r.name + ".json"
		die("write report", bench.WriteJSON(path, rep))
		fmt.Println("wrote", path)
		die(r.name+" acceptance", rep.Check())
	}
	if ran {
		return
	}

	exps, want := bench.Figures(*quick), *fig
	if *ablations {
		exps, want = bench.Ablations(), "all"
	}
	matched := false
	for _, e := range exps {
		if want == "all" || want == e.ID {
			matched = true
			fmt.Println(bench.Table(e.Title, e.Run()))
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q (want 3a, 3b, 4, 5, 6a, 6b or all)\n", *fig)
		os.Exit(2)
	}
}
