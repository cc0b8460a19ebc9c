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
//
// The figures and ablations are simulated and deterministic: every run
// prints the same digits (-recovery and -vmshard run the real stack and
// do not). Their sweeps are bench.Figures and bench.Ablations;
// internal/bench's golden test pins what -quick and -ablations print,
// and its shape tests pin the expected curves.
package main

import (
	"flag"
	"fmt"
	"os"

	"blobseer/internal/bench"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 3a | 3b | 4 | 5 | 6a | 6b | all")
		quick     = flag.Bool("quick", false, "coarse sweeps (3 points per curve)")
		ablations = flag.Bool("ablations", false, "run the ablation experiments instead of the figures")
		recovery  = flag.Bool("recovery", false, "run the crash-recovery ablation and write BENCH_recovery.json")
		vmshard   = flag.Bool("vmshard", false, "run the control-plane sharding ablation and write BENCH_vmshard.json")
	)
	flag.Parse()

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
