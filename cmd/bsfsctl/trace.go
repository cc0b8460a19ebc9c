package main

import (
	"fmt"
	"time"

	"blobseer/internal/obs"
)

// runTrace implements `bsfsctl trace <trace-id>` and `bsfsctl trace
// slow`. It polls every -metrics endpoint's /trace exporter (each
// daemon retains only its own spans), merges what each returns, and
// stitches the union into the causal tree — the cross-process join a
// single process can never see on its own.
func runTrace(endpoints []string, args []string) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("trace: no endpoints (pass -metrics host:port,host:port,...)")
	}
	if len(args) != 1 {
		return fmt.Errorf("trace: want <trace-id> or slow")
	}

	if args[0] == "slow" {
		var roots []obs.Root
		for _, ep := range endpoints {
			rs, err := obs.FetchSlow(ep)
			if err != nil {
				fmt.Printf("# %s: %v\n", ep, err)
				continue
			}
			roots = append(roots, rs...)
		}
		if len(roots) == 0 {
			fmt.Println("no slow roots retained (is the client's -trace-slow set? see bsfsblaster -trace-slow)")
			return nil
		}
		fmt.Printf("%-32s %-24s %12s  %s\n", "TRACE", "OPERATION", "DURATION", "START")
		for _, r := range roots {
			line := fmt.Sprintf("%-32s %-24s %12s  %s",
				r.Trace, r.Service+"."+r.Op, r.Duration.Round(time.Microsecond), r.Start.Format(time.RFC3339Nano))
			if r.Err != "" {
				line += "  ERR " + r.Err
			}
			fmt.Println(line)
		}
		return nil
	}

	id, err := obs.ParseID(args[0])
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var spans []obs.Span
	for _, ep := range endpoints {
		ss, err := obs.FetchSpans(ep, id)
		if err != nil {
			// A dead endpoint must not hide the rest of the trace.
			fmt.Printf("# %s: %v\n", ep, err)
			continue
		}
		spans = append(spans, ss...)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %s: no spans retained at any endpoint (evicted, unsampled, or wrong id)", id)
	}
	fmt.Print(obs.FormatTree(obs.Stitch(spans)))
	return nil
}
