// Command figures regenerates the paper's evaluation figures (Section
// V) on the simulated Grid'5000 testbed and prints each series as a
// table. The flags select a figure and optionally shrink the sweep for
// a quick run:
//
//	figures                  # every figure, full sweeps
//	figures -fig 4           # only Figure 4
//	figures -fig 6b -quick   # Figure 6b, coarse sweep
//	figures -ablations       # the design-choice ablations (internal/bench/ablation.go)
//
// The figures and ablations are simulated and deterministic: every run
// prints the same digits. Their sweeps are bench.Figures and
// bench.Ablations; internal/bench's golden test pins what -quick and
// -ablations print, and its shape tests pin the expected curves. The
// real stack's control-plane claims (crash durability, fsync cost,
// group commit, replay time) are tests and benchmarks in the packages
// they measure: internal/cluster's chaos tests and internal/vmanager's
// BenchmarkAssignCommit and BenchmarkRecover.
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
	)
	flag.Parse()

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
