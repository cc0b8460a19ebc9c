// Command blobseerd launches one BlobSeer (or baseline HDFS) daemon on
// a TCP endpoint. A full deployment is a set of blobseerd processes,
// one per role — exactly the process inventory of the paper's Figure 2:
//
//	blobseerd -role meta      -listen 127.0.0.1:7101
//	blobseerd -role meta      -listen 127.0.0.1:7102
//	blobseerd -role vmanager  -listen 127.0.0.1:7001 -meta 127.0.0.1:7101,127.0.0.1:7102
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
//	blobseerd -role vmanager  -listen 127.0.0.1:7001 -shard 0/2 -meta ...
//	blobseerd -role vmanager  -listen 127.0.0.1:7011 -shard 1/2 -meta ...
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
// Block payloads live in memory by default; pass -store to select any
// backend by URL — "file:///var/blocks?sync=1" for a file-backed store,
// "http://peer:9000/base" for a remote object server, or
// "tiered://?hot=mem://&cold=file:///var/blocks" for the hot/cold
// tiered engine (see the store package for the policy knobs).
// The control-plane daemons (vmanager, namespace) are volatile by
// default; pass -data-dir to journal every mutation to a write-ahead
// log and recover the state on restart (-wal-sync trades durability for
// throughput by batching fsyncs). SIGTERM flushes and closes the log
// before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/hdfs"
	"blobseer/internal/mdtree"
	"blobseer/internal/metrics"
	"blobseer/internal/namespace"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/trace"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

func main() {
	var (
		role     = flag.String("role", "", "daemon role: vmanager | pmanager | provider | meta | namespace | repair | namenode | datanode")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		metas    = flag.String("meta", "", "comma-separated metadata provider addresses (vmanager: abort repair; required for -role vmanager unless -no-repair)")
		metaRepl = flag.Int("meta-replication", 1, "DHT replication level (vmanager repair path)")
		metaCach = flag.Int("meta-cache", 0, "vmanager: immutable-node cache entries for the repair store (<0 default, 0 off)")
		noRepair = flag.Bool("no-repair", false, "vmanager: disable metadata abort repair")
		shard    = flag.String("shard", "", "vmanager: shard identity k/K (e.g. 0/4); empty = unsharded")
		vmAddr   = flag.String("vmanager", "", "version manager address, comma-separated shard list when sharded (namespace/repair roles)")
		pmAddr   = flag.String("pmanager", "", "provider manager address (provider role; registers at startup)")
		nnAddr   = flag.String("namenode", "", "namenode address (datanode role; registers at startup)")
		host     = flag.String("host", "", "physical host label exposed for affinity scheduling (provider/datanode)")
		storeURL = flag.String("store", "", "block-store backend URL: mem:// | file:///path?sync=1 | http://peer/base | tiered://?hot=...&cold=... (default: mem://)")
		strategy = flag.String("strategy", "roundrobin", "placement strategy: roundrobin | random | sticky | leastloaded (pmanager/namenode)")
		seed     = flag.Uint64("seed", 1, "placement RNG seed (random/sticky)")
		stickyW  = flag.Int("sticky-window", 8, "sticky placement window (namenode's HDFS-0.20-like clustering)")
		blockSz  = flag.Int64("block-size", 64*util.MB, "chunk size in bytes (namenode)")
		wtimeout = flag.Duration("write-timeout", 0, "vmanager: abort writers silent for this long (0 disables the janitor)")
		dataDir  = flag.String("data-dir", "", "vmanager/namespace: WAL directory for crash-durable state (default: volatile)")
		walSync  = flag.Duration("wal-sync", 0, "vmanager/namespace: fsync the WAL at this interval instead of per record (0 = every record)")
		hbEvery  = flag.Duration("heartbeat", 5*time.Second, "provider: heartbeat interval to the provider manager (0 disables)")
		expire   = flag.Duration("expire-after", 0, "pmanager: mark providers silent this long dead (0 disables the liveness loop)")
		repEvery = flag.Duration("repair-interval", 30*time.Second, "repair: scan-and-repair period")
		repConc  = flag.Int("repair-concurrency", 0, "repair: parallel block repairs (0 = default)")
		metAddr  = flag.String("metrics-addr", "", "HTTP address serving this daemon's /metrics and /trace (\"127.0.0.1:0\" picks a port; empty disables)")
		trSample = flag.Float64("trace-sample", 0, "probability [0,1] that a request with no inbound trace context starts a sampled trace")
		trSlow   = flag.Duration("trace-slow", 0, "force-sample any root operation slower than this (0 disables slow-root capture)")
		trBuf    = flag.Int("trace-buf", 0, "per-daemon span ring capacity (0 = default)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("blobseerd: ")

	if *role == "" {
		fmt.Fprintln(os.Stderr, "blobseerd: -role is required")
		flag.Usage()
		os.Exit(2)
	}

	// The -vmanager list is parsed (and, by the roles that need it,
	// validated) once: "," or " " names no address at all.
	vmAddrs := splitAddrs(*vmAddr)

	newStore := func() store.Store {
		u := *storeURL
		if u == "" {
			u = "mem://"
		}
		st, err := store.Open(u)
		if err != nil {
			log.Fatalf("open store: %v", err)
		}
		return st
	}
	// openWAL opens the role's record log under -data-dir (nil without
	// one: the daemon runs volatile, the pre-durability behavior).
	openWAL := func(role string) *wal.Log {
		if *dataDir == "" {
			return nil
		}
		opts := wal.Options{Policy: wal.SyncAlways}
		if *walSync > 0 {
			opts = wal.Options{Policy: wal.SyncInterval, Interval: *walSync}
		}
		log_, err := wal.Open(filepath.Join(*dataDir, role), opts)
		if err != nil {
			log.Fatalf("open WAL under %s: %v", *dataDir, err)
		}
		return log_
	}
	// tracer is this daemon's span recorder. Rate 0 (the default)
	// records only requests that arrive already carrying a sampled
	// trace context, so an untraced deployment pays the no-op path.
	tracer := trace.New(*role, *trBuf)
	tracer.SetSampling(*trSample, *trSlow)
	traceExp := trace.NewExporter()
	traceExp.Register(tracer)
	// serveMetrics exports one service registry (and the daemon's trace
	// buffer at /trace) over HTTP when -metrics-addr is set; it returns
	// the listener's stop function (nil when the listener is off).
	serveMetrics := func(name string, reg *metrics.Registry) func() error {
		if *metAddr == "" {
			return nil
		}
		exp := metrics.NewExporter()
		exp.Register(name, reg) // nil registries are ignored
		hmux := http.NewServeMux()
		hmux.Handle("/metrics", exp)
		hmux.Handle("/", exp)
		hmux.Handle("/trace", traceExp)
		bound, stop, err := metrics.ServeHandler(*metAddr, hmux)
		if err != nil {
			log.Fatalf("metrics listener on %s: %v", *metAddr, err)
		}
		log.Printf("metrics on http://%s/metrics (traces at /trace)", bound)
		return stop
	}
	newStrategy := func() placement.Strategy {
		switch *strategy {
		case "roundrobin":
			return placement.NewRoundRobin()
		case "random":
			return placement.NewRandom(*seed)
		case "sticky":
			return placement.NewRandomSticky(*stickyW, *seed)
		case "leastloaded":
			return placement.NewLeastLoaded()
		default:
			log.Fatalf("unknown strategy %q", *strategy)
			return nil
		}
	}

	// The repair daemon serves no RPC: it is a pure client of the
	// version manager, provider manager, metadata DHT and providers,
	// looping scan-and-repair until stopped.
	if *role == "repair" {
		if len(vmAddrs) == 0 || *pmAddr == "" || *metas == "" {
			log.Fatal("repair: -vmanager, -pmanager and -meta are required")
		}
		if *repEvery <= 0 {
			log.Fatal("repair: -repair-interval must be positive")
		}
		pool := rpc.NewPool(rpc.TCPDialer)
		ring := dht.NewRing(splitAddrs(*metas), dht.DefaultVnodes)
		dhtClient := dht.NewClient(ring, pool, *metaRepl)
		eng := repair.New(repair.Config{
			VM:          vmanager.NewClient(pool, vmAddrs...),
			PM:          pmanager.NewClient(pool, *pmAddr),
			Prov:        provider.NewClient(pool),
			Meta:        mdtree.MaybeCache(mdtree.NewDHTStore(dhtClient), *metaCach),
			Overlay:     repair.NewOverlay(dhtClient),
			Concurrency: *repConc,
		})
		eng.Start(*repEvery)
		log.Printf("repair loop running (every %s)", *repEvery)
		stopM := serveMetrics("repair", eng.Metrics())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down")
		eng.Stop()
		if stopM != nil {
			_ = stopM()
		}
		return
	}

	var (
		mux     *rpc.Mux
		cleanup func()
		provSvc *provider.Service
		mreg    *metrics.Registry   // the role's registry for -metrics-addr
		opName  func(uint16) string // method-id -> span op name for this role
	)
	switch *role {
	case "meta":
		svc := dht.NewMetaService(newStore())
		mreg = svc.Metrics()
		mux = svc.Mux()
		opName = dht.MethodName

	case "vmanager":
		var repair vmanager.Repairer
		if !*noRepair {
			if *metas == "" {
				log.Fatal("vmanager: -meta is required (or pass -no-repair)")
			}
			ring := dht.NewRing(splitAddrs(*metas), dht.DefaultVnodes)
			pool := rpc.NewPool(rpc.TCPDialer)
			st := mdtree.MaybeCache(mdtree.NewDHTStore(dht.NewClient(ring, pool, *metaRepl)), *metaCach)
			repair = vmanager.MetadataRepairer(st)
		}
		si := parseShard(*shard)
		walName := "vmanager"
		if si.Count > 1 {
			// One WAL per shard: kill/restart/recovery never crosses
			// shard boundaries.
			walName = filepath.Join("vmanager", fmt.Sprintf("shard-%d", si.Index))
		}
		var state *vmanager.State
		if l := openWAL(walName); l != nil {
			var err error
			if state, err = vmanager.RecoverShard(l, repair, si); err != nil {
				log.Fatalf("vmanager: recover from WAL: %v", err)
			}
			st := l.Status()
			log.Printf("vmanager: shard %d/%d recovered from WAL (%d segment(s), %d bytes)", si.Index, si.Count, st.Segments, st.LogBytes)
		} else {
			state = vmanager.NewShardState(repair, si)
		}
		svc := vmanager.NewService(state)
		if *wtimeout > 0 {
			svc.StartJanitor(*wtimeout, *wtimeout/2)
		}
		cleanup = func() {
			// Graceful shutdown: release parked waiters, stop the
			// janitor, flush and close the WAL.
			if *wtimeout > 0 {
				svc.StopJanitor()
			}
			state.ReleaseWaiters()
			if err := state.CloseWAL(); err != nil {
				log.Printf("vmanager: close WAL: %v", err)
			}
		}
		mreg = svc.Metrics()
		mux = svc.Mux()
		opName = vmanager.MethodName

	case "pmanager":
		svc := pmanager.NewService(pmanager.NewState(newStrategy()))
		if *expire > 0 {
			svc.StartExpiry(*expire, *expire/2)
			cleanup = svc.StopExpiry
		}
		mreg = svc.Metrics()
		mux = svc.Mux()
		opName = pmanager.MethodName

	case "namespace":
		if len(vmAddrs) == 0 {
			log.Fatal("namespace: -vmanager is required")
		}
		pool := rpc.NewPool(rpc.TCPDialer)
		creator := namespace.VMBlobCreator(vmanager.NewClient(pool, vmAddrs...))
		var state *namespace.State
		if l := openWAL("namespace"); l != nil {
			var err error
			if state, err = namespace.Recover(l, creator); err != nil {
				log.Fatalf("namespace: recover from WAL: %v", err)
			}
			st := l.Status()
			log.Printf("namespace: recovered from WAL (%d segment(s), %d bytes)", st.Segments, st.LogBytes)
		} else {
			state = namespace.NewState(creator)
		}
		cleanup = func() {
			if err := state.CloseWAL(); err != nil {
				log.Printf("namespace: close WAL: %v", err)
			}
		}
		nsSvc := namespace.NewService(state)
		mreg = nsSvc.Metrics()
		mux = nsSvc.Mux()
		opName = namespace.MethodName

	case "provider":
		// Providers forward chain frames to downstream replicas over
		// their own TCP pool.
		provSvc = provider.NewService(newStore(), provider.WithForwarder(rpc.NewPool(rpc.TCPDialer)))
		mreg = provSvc.Metrics()
		mux = provSvc.Mux()
		opName = provider.MethodName

	case "datanode":
		dnSvc := provider.NewService(newStore())
		mreg = dnSvc.Metrics()
		mux = dnSvc.Mux()
		opName = provider.MethodName

	case "namenode":
		mux = hdfs.NewService(hdfs.NewNamenode(*blockSz, newStrategy())).Mux()

	default:
		log.Fatalf("unknown role %q", *role)
	}

	lis, err := rpc.ListenTCP(*listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	addr := lis.Addr().String()
	srv := rpc.NewServer(mux)
	srv.SetTrace(tracer, opName)
	go func() {
		if err := srv.Serve(lis); err != nil {
			log.Printf("serve: %v", err)
		}
	}()
	log.Printf("%s listening on %s", *role, addr)
	stopM := serveMetrics(*role, mreg)

	// Storage daemons announce themselves to their manager so clients
	// can be pointed at the manager alone.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	switch *role {
	case "provider":
		if *pmAddr == "" {
			log.Fatal("provider: -pmanager is required")
		}
		pool := rpc.NewPool(rpc.TCPDialer)
		pm := pmanager.NewClient(pool, *pmAddr)
		if err := pm.Register(ctx, addr, *host); err != nil {
			log.Fatalf("register with provider manager %s: %v", *pmAddr, err)
		}
		log.Printf("registered with provider manager %s as host %q", *pmAddr, *host)
		if *hbEvery > 0 {
			// The liveness loop: heartbeats carry live store statistics
			// so the manager's listings track what the provider actually
			// holds, and going silent for the manager's expiry window
			// drops this provider from the allocation pool.
			go func() {
				t := time.NewTicker(*hbEvery)
				defer t.Stop()
				for range t.C {
					hctx, cancel := context.WithTimeout(context.Background(), *hbEvery)
					known, err := pm.Heartbeat(hctx, addr, provSvc.Store().Stats())
					switch {
					case err != nil:
						log.Printf("heartbeat to %s: %v", *pmAddr, err)
					case !known:
						// The manager restarted and lost its membership:
						// re-register so the allocation pool recovers
						// without restarting every provider.
						if err := pm.Register(hctx, addr, *host); err != nil {
							log.Printf("re-register with %s: %v", *pmAddr, err)
						} else {
							log.Printf("re-registered with provider manager %s", *pmAddr)
						}
					}
					cancel()
				}
			}()
		}
	case "datanode":
		if *nnAddr == "" {
			log.Fatal("datanode: -namenode is required")
		}
		pool := rpc.NewPool(rpc.TCPDialer)
		if err := hdfs.NewNNClient(pool, *nnAddr).Register(ctx, addr, *host); err != nil {
			log.Fatalf("register with namenode %s: %v", *nnAddr, err)
		}
		log.Printf("registered with namenode %s as host %q", *nnAddr, *host)
	}
	cancel()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if cleanup != nil {
		cleanup()
	}
	if stopM != nil {
		_ = stopM()
	}
	srv.Close()
}

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseShard parses -shard "k/K" into a ShardInfo ("" = unsharded).
func parseShard(s string) vmanager.ShardInfo {
	if s == "" {
		return vmanager.ShardInfo{}
	}
	var k, n int
	if c, err := fmt.Sscanf(s, "%d/%d", &k, &n); err != nil || c != 2 || n < 1 || k < 0 || k >= n {
		log.Fatalf("vmanager: bad -shard %q (want k/K with 0 <= k < K)", s)
	}
	return vmanager.ShardInfo{Index: k, Count: n}
}
