package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Each workload runs in its own OS processes, so heap state,
// rss_peak_mb and setup_s are per workload: the suite re-executes this
// binary for every run, and an end-to-end run once more for each of
// its segments.

// runChild re-executes this binary with o's settings plus extra, waits
// for it, and returns its standard output and the last line of it. A
// child that fails has its output passed through.
func runChild(o options, workload string, extra ...string) (out, last []byte, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--out", o.outDir}
	cmd := exec.Command(self, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(buf.Bytes())
		return nil, nil, fmt.Errorf("%s %v (seed %d): %w", workload, extra, o.seed, err)
	}
	out = bytes.TrimRight(buf.Bytes(), "\n")
	return out, out[bytes.LastIndexByte(out, '\n')+1:], nil
}

// segmentChild measures segment k of an end-to-end run in a process of
// its own, which may take budget of wall clock, and passes on what it
// printed.
func segmentChild(o options, k int, budget time.Duration) (*segment, error) {
	out, last, err := runChild(o, o.workload, "--segment", strconv.Itoa(k), "--budget", max(budget, time.Nanosecond).String())
	if err != nil {
		return nil, err
	}
	os.Stdout.Write(out[:len(out)-len(last)])
	var seg segment
	if err := json.Unmarshal(last, &seg); err != nil {
		return nil, fmt.Errorf("%s segment %d: result line: %w", o.workload, k, err)
	}
	return &seg, nil
}

// runResult runs one workload, end to end or traced, in a child and
// parses its result line.
func runResult(o options, workload string, trace, quiet bool) (*resultJSON, error) {
	t := "0"
	if trace {
		t = "1"
	}
	extra := []string{"--trace", t}
	if o.quick {
		extra = append(extra, "--quick")
	}
	out, last, err := runChild(o, workload, extra...)
	if err != nil {
		return nil, err
	}
	if !quiet {
		fmt.Printf("%s\n", out)
	}
	var res resultJSON
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s (seed %d): %d of %d operations failed", workload, o.seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// runAll is the one command that prints everything: every workload end
// to end, then every workload traced.
func runAll(o options) error {
	for _, trace := range []bool{false, true} {
		for _, w := range workloadOrder {
			if _, err := runResult(o, w, trace, false); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json the acceptance check
// needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns is the runs in each of -check-repeat's two sets, as many
// as the driver makes.
const repeatRuns = 10

// checkRepeatSets is the driver's acceptance rule, run here: two sets
// of repeatRuns end-to-end runs per workload, every run on its own seed.
// Within a set, each metric's interquartile spread as a share of its
// median must stay within the metric's bound (setup_s excepted);
// between the sets, no median may be worse by more than the bound.
func checkRepeatSets(o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-check-repeat runs from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bad := 0
	for _, w := range workloadOrder {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for k := 0; k < repeatRuns; k++ {
				ro := o
				ro.seed = o.seed + uint64(s*repeatRuns+k)
				res, err := runResult(ro, w, false, true)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				fmt.Printf("%s set %d run %d/%d (seed %d): primary %.1f MB/s\n", w, s+1, k+1, repeatRuns, ro.seed, res.Metrics["primary_mb_s"].Value)
			}
		}
		fmt.Printf("\n%-14s %-30s %12s %12s %12s %8s | %12s %8s | %8s %6s\n", "workload", "metric",
			"median_1", "q1_1", "q3_1", "spread_1", "median_2", "spread_2", "worse", "bound")
		for _, d := range spec.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			q1, m1, q3 := quartiles(a)
			_, m2, _ := quartiles(b)
			worse := (m2 - m1) / m1
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
				verdict = "  SPREAD"
				bad++
			}
			if worse > d.Bound {
				verdict += "  DRIFT"
				bad++
			}
			fmt.Printf("%-14s %-30s %12.5f %12.5f %12.5f %7.2f%% | %12.5f %7.2f%% | %7.2f%% %5.0f%%%s\n",
				w, d.Name, m1, q1, q3, 100*spread(a), m2, 100*spread(b), 100*worse, 100*d.Bound, verdict)
		}
		fmt.Println()
	}
	if bad > 0 {
		return fmt.Errorf("-check-repeat: %d (metric, workload) pairs outside their bounds", bad)
	}
	fmt.Println("-check-repeat: every (metric, workload) pair within its bound")
	return nil
}
