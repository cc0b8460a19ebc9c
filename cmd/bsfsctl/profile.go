package main

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"blobseer/internal/obs"
)

// runProfile implements `bsfsctl profile <duration>`: it profiles every
// -metrics endpoint's process at once for duration, merges the CPU
// profiles, and prints each label set's share of the CPU time, largest
// first: a server method's role and method, a client's op, a
// connection's rpc goroutine. An in-process cluster needs one endpoint.
func runProfile(endpoints []string, args []string) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("profile: no endpoints (pass -metrics host:port,host:port,...)")
	}
	if len(args) != 1 {
		return fmt.Errorf("profile: want <duration>")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d < time.Second {
		return fmt.Errorf("profile: bad duration %q (1s at least)", args[0])
	}
	shares := make([]map[string]int64, len(endpoints))
	errs := make([]error, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		shares[i] = make(map[string]int64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = obs.FetchCPUShares(ep, d, shares[i])
		}()
	}
	wg.Wait()
	merged := make(map[string]int64)
	var total int64
	for i, ep := range endpoints {
		if errs[i] != nil {
			fmt.Printf("# %s: %v\n", ep, errs[i]) // a dead endpoint must not hide the rest
		}
		for k, ns := range shares[i] {
			merged[k] += ns
			total += ns
		}
	}
	if total == 0 {
		return fmt.Errorf("profile: no CPU samples at any endpoint")
	}
	fmt.Printf("%6s %10s  %s\n", "SHARE", "CPU", "LABELS")
	for _, k := range slices.SortedFunc(maps.Keys(merged), func(a, b string) int { return cmp.Compare(merged[b], merged[a]) }) {
		fmt.Printf("%5.1f%% %10s  %s\n", 100*float64(merged[k])/float64(total),
			time.Duration(merged[k]).Round(time.Millisecond), cmp.Or(k, "(unlabelled)"))
	}
	return nil
}
