// Command bsfsblaster drives a configurable open/read/write/append
// load against a BlobSeer deployment and reports sustained throughput,
// per-op latency percentiles and the error rate as BENCH_blaster.json.
//
// Simulated mode (the default) boots a whole in-process cluster and
// blasts it — a one-command load test of the full stack:
//
//	bsfsblaster -sim -workers 8 -duration 30s -metrics-addr 127.0.0.1:9100
//
// Real mode points the same engine at a running deployment (see
// cmd/blobseerd), exercising exactly the client stack Hadoop would:
//
//	bsfsblaster -sim=false -vmanager 127.0.0.1:7001 -pmanager 127.0.0.1:7002 \
//	            -namespace 127.0.0.1:7003 -meta 127.0.0.1:7101 -duration 60s
//
// -duration 0 selects long-run mode: the blaster runs until SIGINT or
// SIGTERM and measures the whole steady state. While a run is live,
// -metrics-addr serves /metrics with the blaster's own counters and
// histograms (plus, in simulated mode, every daemon of the embedded
// cluster) — `bsfsctl -metrics <addr> top` watches the rates.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blobseer/internal/bench"
	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/node"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
	"blobseer/internal/util"
)

func main() {
	var (
		sim      = flag.Bool("sim", true, "boot an in-process cluster and blast it (false: connect to a real deployment)")
		workers  = flag.Int("workers", 4, "closed-loop worker goroutines")
		duration = flag.Duration("duration", 10*time.Second, "measured steady-state window (0 = long-run: until SIGINT)")
		ramp     = flag.Duration("ramp", 2*time.Second, "untimed warm-up before measurement")
		files    = flag.Int("files", 8, "shared working-set files")
		fileSize = flag.Int64("file-size", 0, "initial bytes per working-set file (0 = 4x -io-size)")
		ioSize   = flag.Int("io-size", 64*int(util.KB), "bytes per read/write/append op")
		mixOpen  = flag.Int("opens", 10, "mix weight: open/close")
		mixRead  = flag.Int("reads", 60, "mix weight: random reads")
		mixWrite = flag.Int("writes", 20, "mix weight: whole-file writes")
		mixApp   = flag.Int("appends", 10, "mix weight: shared-file appends")
		budget   = flag.Float64("error-budget", 0.01, "highest tolerable failed-op fraction (concurrent unaligned appends can conflict by design)")
		rate     = flag.Float64("rate", 0, "paced open-loop target in ops/s across all workers; latency is then also measured from each op's intended start (0 = closed loop)")
		trEvery  = flag.Int("trace-every", 0, "tag every Nth op with a distributed trace and report the IDs (0 disables)")
		trSample = flag.Float64("trace-sample", 0, "sim: head-sampling rate for the embedded cluster's client tracer")
		trSlow   = flag.Duration("trace-slow", 0, "sim: trace everything and index roots slower than this (0 disables)")
		out      = flag.String("out", "BENCH_blaster.json", "report path (empty disables)")
		metAddr  = flag.String("metrics-addr", "", "HTTP address serving /metrics during the run (empty disables)")
		seed     = flag.Int64("seed", 1, "worker RNG seed")

		// Simulated-cluster shape.
		providers = flag.Int("providers", 4, "sim: data providers")
		metaProv  = flag.Int("meta-providers", 2, "sim: metadata providers")
		blockSz   = flag.Int64("block-size", util.MB, "sim: block size (and new-file striping unit in real mode)")
		repl      = flag.Int("replication", 1, "replication level for blaster files")

		// Real-deployment endpoints (ignored with -sim).
		conn = node.ConnFlags(flag.CommandLine)
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("bsfsblaster: ")

	// Long-run mode (and early aborts either way): SIGINT/SIGTERM ends
	// the measurement window cleanly and the report still lands.
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("signal received; finishing the run")
		cancel()
	}()

	// Both modes build their client the way every binary does, from the
	// deployment's addresses alone (node.Connect), and export it next to
	// the blaster's own registry; they differ in where the addresses come
	// from and in whose exporter serves /metrics and /trace.
	var (
		clients *node.Clients
		exp     *obs.Exporter
	)
	if *sim {
		cl, err := cluster.StartBlobSeer(cluster.Config{
			DataProviders: *providers,
			MetaProviders: *metaProv,
			BlockSize:     *blockSz,
			Replication:   *repl,
			MetricsAddr:   *metAddr,
			TraceSample:   *trSample,
			TraceSlow:     *trSlow,
		})
		if err != nil {
			log.Fatalf("start cluster: %v", err)
		}
		defer cl.Stop()
		clients = node.Connect(cl.Pool, node.Endpoints{
			VM: cl.VMAddrs, PM: cl.PMAddr, NS: cl.NSAddr, Meta: cl.MetaAddrs, MetaReplication: cl.Cfg.MetaReplication,
		})
		exp = cl.Obs()
		if url := cl.MetricsURL(); url != "" {
			log.Printf("metrics on %s/metrics", url)
		}
	} else {
		ep, err := conn()
		if err != nil {
			log.Fatal(err)
		}
		pool := rpc.NewPool(rpc.TCPDialer)
		defer pool.Close()
		clients, exp = node.Connect(pool, ep), obs.NewExporter()
		if *metAddr != "" {
			bound, stop, err := exp.Serve(*metAddr)
			if err != nil {
				log.Fatalf("metrics listener on %s: %v", *metAddr, err)
			}
			defer stop()
			log.Printf("metrics on http://%s/metrics", bound)
		}
	}
	clients.Tracer = exp.Plane("client").Tracer() // records the ops -trace-every tags
	client := clients.Core("")
	exp.Register("client", client.Metrics())
	reg := obs.NewRegistry()
	exp.Register("blaster", reg)
	fsys, err := clients.BSFS(client, bsfs.Config{
		BlockSize:        *blockSz,
		Replication:      *repl,
		ReadaheadBlocks:  stream.DefaultReadahead,
		WriteBehindDepth: stream.DefaultWriteBehind,
	})
	if err != nil {
		log.Fatalf("bsfs: %v", err)
	}

	mode := fmt.Sprintf("%s window", *duration)
	if *duration == 0 {
		mode = "long-run (until signal)"
	}
	loop := "closed loop"
	if *rate > 0 {
		loop = fmt.Sprintf("open loop @ %.0f ops/s", *rate)
	}
	log.Printf("blasting: %d workers (%s), mix open/read/write/append = %d/%d/%d/%d, %s",
		*workers, loop, *mixOpen, *mixRead, *mixWrite, *mixApp, mode)
	var traceHook func(context.Context) (context.Context, string)
	if *trEvery > 0 {
		traceHook = func(ctx context.Context) (context.Context, string) {
			tctx, id := obs.WithRoot(ctx)
			return tctx, id.String()
		}
	}
	report, err := bench.RunBlaster(ctx, bench.BlasterConfig{
		FS:          fsys,
		Workers:     *workers,
		Duration:    *duration,
		Ramp:        *ramp,
		Files:       *files,
		FileSize:    *fileSize,
		IOSize:      *ioSize,
		MixOpen:     *mixOpen,
		MixRead:     *mixRead,
		MixWrite:    *mixWrite,
		MixAppend:   *mixApp,
		Rate:        *rate,
		ErrorBudget: *budget,
		Registry:    reg,
		Trace:       traceHook,
		TraceEvery:  *trEvery,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	log.Printf("measured %.1fs: %d ops (%.1f ops/s), read %.1f MB/s, write %.1f MB/s, error rate %.4f",
		report.Seconds, report.TotalOps, report.OpsPerSec, report.ReadMBps, report.WriteMBps, report.ErrorRate)
	for _, op := range []string{"open", "read", "write", "append"} {
		st := report.Ops[op]
		log.Printf("  %-6s count=%-8d errors=%-4d p50=%.0fµs p99=%.0fµs p999=%.0fµs",
			op, st.Count, st.Errors, st.P50us, st.P99us, st.P999us)
		if cs, ok := report.Corrected[op]; ok {
			log.Printf("  %-6s   corrected (from intended start): p50=%.0fµs p99=%.0fµs p999=%.0fµs",
				"", cs.P50us, cs.P99us, cs.P999us)
		}
	}
	for _, id := range report.TraceIDs {
		log.Printf("  traced op: %s (bsfsctl -metrics <addr> trace %s)", id, id)
	}
	if *out != "" {
		if err := bench.WriteJSON(*out, report); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
		log.Printf("report written to %s", *out)
	}
	if err := report.Check(); err != nil {
		log.Fatalf("check failed: %v", err)
	}
	log.Printf("check passed")
}
