// Command blobseerd launches one BlobSeer (or baseline HDFS) daemon on
// a TCP endpoint. A full deployment is a set of blobseerd processes,
// one per role — exactly the process inventory of the paper's Figure 2:
//
//	blobseerd -role meta      -listen 127.0.0.1:7101
//	blobseerd -role meta      -listen 127.0.0.1:7102
//	blobseerd -role vmanager  -listen 127.0.0.1:7001
//	blobseerd -role pmanager  -listen 127.0.0.1:7002 -strategy roundrobin
//	blobseerd -role namespace -listen 127.0.0.1:7003 -vmanager 127.0.0.1:7001
//	blobseerd -role provider  -listen 127.0.0.1:7201 -pmanager 127.0.0.1:7002 -host host-0
//	blobseerd -role provider  -listen 127.0.0.1:7202 -pmanager 127.0.0.1:7002 -host host-1
//
// The version manager can be sharded K ways: start K vmanager daemons,
// each with -shard k/K (shard k then owns the blob IDs congruent to k
// mod K and keeps its own WAL), and hand every consumer the full
// comma-separated shard list in shard order:
//
//	blobseerd -role vmanager  -listen 127.0.0.1:7001 -shard 0/2
//	blobseerd -role vmanager  -listen 127.0.0.1:7011 -shard 1/2
//	blobseerd -role namespace -listen 127.0.0.1:7003 -vmanager 127.0.0.1:7001,127.0.0.1:7011
//
// The self-healing plane adds two moving parts: providers heartbeat
// their store statistics to the provider manager (-heartbeat), which
// expires silent ones (-expire-after), and a repair daemon restores
// replication after provider loss:
//
//	blobseerd -role pmanager -listen 127.0.0.1:7002 -expire-after 15s
//	blobseerd -role repair   -vmanager 127.0.0.1:7001 -pmanager 127.0.0.1:7002 \
//	          -meta 127.0.0.1:7101,127.0.0.1:7102 -repair-interval 30s
//
// The baseline file system uses the namenode/datanode roles instead:
//
//	blobseerd -role namenode -listen 127.0.0.1:8001 -block-size 67108864
//	blobseerd -role datanode -listen 127.0.0.1:8201 -namenode 127.0.0.1:8001 -host host-0
//
// Block payloads live in memory by default; pass -store to select a
// backend by URL — "file:///var/blocks?sync=1" for a file-backed store,
// whose recently read blocks the OS page cache keeps in memory. An
// unknown scheme fails with the list of registered ones.
// The control-plane daemons (vmanager, namespace) are volatile by
// default; pass -data-dir to journal every mutation to a write-ahead
// log, fsynced before the mutation is acknowledged, and recover the
// state on restart. SIGTERM stops serving, drains, and only then
// closes the log.
//
// Every role is a node.Node (internal/node): the same construction,
// registration and stop order the in-process deployments of
// internal/cluster run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blobseer/internal/node"
	"blobseer/internal/placement"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("blobseerd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run starts the daemon args describe, reports its bound address to
// started (when non-nil) and serves until ctx is done, then stops it.
func run(ctx context.Context, args []string, started func(addr string)) error {
	fs := flag.NewFlagSet("blobseerd", flag.ContinueOnError)
	var (
		role     = fs.String("role", "", "daemon role: vmanager | pmanager | provider | meta | namespace | repair | namenode | datanode")
		listen   = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		metas    = fs.String("meta", "", "comma-separated metadata provider addresses (repair role; required there)")
		metaRepl = fs.Int("meta-replication", 1, "DHT replication level (repair role)")
		shard    = fs.String("shard", "", "vmanager: shard identity k/K (e.g. 0/4); empty = unsharded")
		vmAddr   = fs.String("vmanager", "", "version manager address, comma-separated shard list when sharded (namespace/repair roles)")
		pmAddr   = fs.String("pmanager", "", "provider manager address (provider role; registers at startup)")
		nnAddr   = fs.String("namenode", "", "namenode address (datanode role; registers at startup)")
		host     = fs.String("host", "", "physical host label exposed for affinity scheduling (provider/datanode)")
		storeURL = fs.String("store", "", "block-store backend URL: mem:// | file:///path?sync=1 (default: mem://)")
		strategy = fs.String("strategy", "roundrobin", "placement strategy: roundrobin | random | sticky | leastloaded (pmanager/namenode)")
		seed     = fs.Uint64("seed", 1, "placement RNG seed (random/sticky)")
		stickyW  = fs.Int("sticky-window", 8, "sticky placement window (namenode's HDFS-0.20-like clustering)")
		blockSz  = fs.Int64("block-size", 64*util.MB, "chunk size in bytes (namenode)")
		wtimeout = fs.Duration("write-timeout", 0, "vmanager: abort writers silent for this long (0 disables the janitor)")
		dataDir  = fs.String("data-dir", "", "vmanager/namespace: WAL directory for crash-durable state (default: volatile)")
		hbEvery  = fs.Duration("heartbeat", 5*time.Second, "provider: heartbeat interval to the provider manager (0 disables)")
		expire   = fs.Duration("expire-after", 0, "pmanager: mark providers silent this long dead (0 disables the liveness loop)")
		repEvery = fs.Duration("repair-interval", 30*time.Second, "repair: scan-and-repair period")
		metAddr  = fs.String("metrics-addr", "", "HTTP address serving this daemon's /metrics and /trace (\"127.0.0.1:0\" picks a port; empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *role == "" {
		fs.Usage()
		return errors.New("-role is required")
	}
	cfg := node.Config{
		Role: *role,
		Endpoints: node.Endpoints{
			VM: node.SplitAddrs(*vmAddr), PM: *pmAddr,
			Meta: node.SplitAddrs(*metas), MetaReplication: *metaRepl,
		},
		NamenodeAddr: *nnAddr, StoreURL: *storeURL, Host: *host,
		WriteTimeout: *wtimeout,
		DataDir:      *dataDir,
		ExpireAfter:  *expire, Heartbeat: *hbEvery, BlockSize: *blockSz,
		RepairInterval: *repEvery,
		MetricsAddr:    *metAddr, Logf: log.Printf,
	}
	if *shard != "" { // "k/K"; empty = unsharded
		k, n := &cfg.Shard.Index, &cfg.Shard.Count
		if c, err := fmt.Sscanf(*shard, "%d/%d", k, n); err != nil || c != 2 || *n < 1 || *k < 0 || *k >= *n {
			return fmt.Errorf("vmanager: bad -shard %q (want k/K with 0 <= k < K)", *shard)
		}
	}
	switch *strategy {
	case "roundrobin":
		cfg.Strategy = placement.NewRoundRobin()
	case "random":
		cfg.Strategy = placement.NewRandom(*seed)
	case "sticky":
		cfg.Strategy = placement.NewRandomSticky(*stickyW, *seed)
	case "leastloaded":
		cfg.Strategy = placement.NewLeastLoaded()
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	cfg.Pool = rpc.NewPool(rpc.TCPDialer)
	defer cfg.Pool.Close()
	// The repair daemon serves no RPC: it is a pure client of the
	// version manager, provider manager, metadata DHT and providers.
	if *role != node.Repair {
		var err error
		if cfg.Listener, err = rpc.ListenTCP(*listen); err != nil {
			return fmt.Errorf("listen %s: %w", *listen, err)
		}
	}
	n, err := node.Start(cfg)
	if err != nil {
		return err
	}
	if started != nil {
		started(n.Addr)
	}
	<-ctx.Done()
	log.Printf("shutting down")
	n.Stop()
	return nil
}
