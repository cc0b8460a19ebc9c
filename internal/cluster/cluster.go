// Package cluster assembles whole deployments in one process: every
// daemon of Figure 2 (version manager, provider manager, data
// providers, metadata providers, namespace manager) wired over an
// in-process or TCP transport, exactly as the automated Grid'5000
// deployment of Section V-A wires physical machines. Tests, examples
// and the CLI tools all start clusters through this package.
package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
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
)

// Config describes a BlobSeer deployment.
type Config struct {
	DataProviders   int
	MetaProviders   int
	BlockSize       int64
	Replication     int // data replication level
	MetaReplication int // DHT replication level
	MetaCacheSize   int // per-client immutable-node cache entries (<0 default, 0 off)
	Strategy        placement.Strategy
	WriteTimeout    time.Duration // janitor abort threshold; 0 disables
	UseTCP          bool          // listen on loopback TCP instead of inproc
	// BSFS streaming-pipeline tunables (Section IV-B): 0 picks the
	// bsfs defaults, negative disables (fully synchronous block I/O).
	ReadaheadBlocks  int  // reader async prefetch window, in blocks
	WriteBehindDepth int  // writer background commits in flight
	DisableCache     bool // ablation: no block cache, no pipeline

	// Self-healing replication (the repair plane). Heartbeats and the
	// expiry ticker form the liveness loop; the repair engine restores
	// redundancy after provider loss. All three default off so the
	// paper-faithful experiments keep their exact traffic shape.
	HeartbeatInterval time.Duration // providers heartbeat store stats to the pmanager (0 disables)
	ExpireAfter       time.Duration // pmanager expires providers silent this long (0 disables)
	RepairInterval    time.Duration // background repair scan period (0 = on-demand via RepairEngine only)
	RepairConcurrency int           // parallel block repairs (0 = repair.DefaultConcurrency)

	// VMShards runs K independent version-manager shard services
	// instead of one. Shard k owns the blob IDs with
	// vmanager.ShardOf(id, K) == k and keeps its own WAL (under
	// DataDir/vmanager/shard-<k> when durable); every vmanager.Client
	// routes per-blob calls by the same rule, so publish throughput
	// scales with K. 0/1 keeps the classic single manager.
	VMShards int

	// Crash durability (the control-plane WAL). DataDir enables
	// write-ahead logging for the version manager and the namespace
	// under DataDir/vmanager and DataDir/namespace; both recover their
	// state from the logs at start. Empty keeps the historical
	// in-memory-only control plane.
	DataDir string
	// WALSyncInterval selects the fsync policy: 0 syncs every record
	// (no acknowledged operation is ever lost); >0 batches fsyncs at
	// this interval (client-acked publishes are still always synced).
	WALSyncInterval time.Duration
	// CallTimeout is the per-call RPC I/O deadline applied to the
	// deployment's shared pool: calls against a hung peer fail (and
	// become retryable) after this long. 0 disables, the historical
	// behavior.
	CallTimeout time.Duration

	// MetricsAddr, when non-empty, serves the whole deployment's
	// metrics over HTTP at this address ("127.0.0.1:0" picks a free
	// port; MetricsURL reports the bound endpoint). Every daemon's
	// registry is exported under its service name regardless — the
	// address only controls whether an HTTP listener fronts them. The
	// same listener also serves the trace exporter at /trace.
	MetricsAddr string

	// Distributed tracing. Every daemon always carries a tracer (it
	// records only requests that arrive already-traced, so an untraced
	// workload costs nothing); TraceSample sets the client-side head
	// sampling probability in [0,1], TraceSlow force-samples any client
	// root operation slower than the threshold, and TraceBuf bounds
	// each tracer's span ring (0 = trace.DefaultBufSpans).
	TraceSample float64
	TraceSlow   time.Duration
	TraceBuf    int

	// StoreURL selects every data provider's block-store backend (see
	// store.Open): "mem://" (the default when empty), "file:///path",
	// "http://peer/base", or a composing "tiered://?hot=...&cold=...".
	// A "{n}" anywhere in the URL expands to the provider index, so one
	// template configures the whole fleet without directory collisions.
	StoreURL string
}

func (c *Config) fill() {
	if c.DataProviders == 0 {
		c.DataProviders = 4
	}
	if c.MetaProviders == 0 {
		c.MetaProviders = 2
	}
	if c.BlockSize == 0 {
		c.BlockSize = util.MB // tests default to small blocks
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.MetaReplication == 0 {
		c.MetaReplication = 1
	}
	if c.Strategy == nil {
		c.Strategy = placement.NewRoundRobin()
	}
	if c.VMShards == 0 {
		c.VMShards = 1
	}
	if c.ReadaheadBlocks == 0 {
		c.ReadaheadBlocks = bsfs.DefaultReadaheadBlocks
	}
	if c.WriteBehindDepth == 0 {
		c.WriteBehindDepth = bsfs.DefaultWriteBehindDepth
	}
}

// BlobSeer is a running deployment.
type BlobSeer struct {
	Cfg           Config
	Pool          *rpc.Pool
	VMAddrs       []string // every version-manager shard, in shard order (one when unsharded)
	PMAddr        string
	NSAddr        string
	ProviderAddrs []string
	MetaAddrs     []string
	MetaStore     mdtree.Store
	Overlay       *repair.Overlay

	vmSvcs     []*vmanager.Service // per shard, in shard order
	pmSvc      *pmanager.Service
	nsSvc      *namespace.Service
	provSvcs   map[string]*provider.Service
	provStores []store.Store // provider-order backends, closed on Stop
	metaSvcs   map[string]*dht.MetaService

	repairEng *repair.Engine

	exporter    *metrics.Exporter
	metricsURL  string
	stopMetrics func() error

	tracersMu    sync.Mutex
	tracers      map[string]*trace.Tracer // per-daemon, by service name
	clientTracer *trace.Tracer            // shared by every NewClient of this deployment
	traceExp     *trace.Exporter

	net       *rpc.InprocNetwork
	serversMu sync.Mutex
	servers   []*rpc.Server
	srvByAddr map[string]*rpc.Server

	heartbeatMu   sync.Mutex
	stopHeartbeat map[string]chan struct{} // per-provider heartbeat loops
}

// listenerFactory abstracts inproc vs TCP endpoints.
type listenerFactory func(name string) (net.Listener, string, error)

// StartBlobSeer deploys all services of a BlobSeer instance.
func StartBlobSeer(cfg Config) (*BlobSeer, error) {
	cfg.fill()
	c := &BlobSeer{
		Cfg:           cfg,
		provSvcs:      make(map[string]*provider.Service),
		metaSvcs:      make(map[string]*dht.MetaService),
		srvByAddr:     make(map[string]*rpc.Server),
		stopHeartbeat: make(map[string]chan struct{}),
		tracers:       make(map[string]*trace.Tracer),
		traceExp:      trace.NewExporter(),
	}
	c.clientTracer = trace.New("client", cfg.TraceBuf)
	c.clientTracer.SetSampling(cfg.TraceSample, cfg.TraceSlow)
	c.traceExp.Register(c.clientTracer)

	var listen listenerFactory
	if cfg.UseTCP {
		listen = func(name string) (net.Listener, string, error) {
			lis, err := rpc.ListenTCP("127.0.0.1:0")
			if err != nil {
				return nil, "", err
			}
			return lis, lis.Addr().String(), nil
		}
		c.Pool = rpc.NewPool(rpc.TCPDialer)
	} else {
		c.net = rpc.NewInprocNetwork()
		listen = func(name string) (net.Listener, string, error) {
			lis, err := c.net.Listen(name)
			if err != nil {
				return nil, "", err
			}
			return lis, name, nil
		}
		c.Pool = rpc.NewPool(c.net.Dial)
	}
	if cfg.CallTimeout > 0 {
		c.Pool.SetCallTimeout(cfg.CallTimeout)
	}

	serve := func(name string, mux *rpc.Mux, opName func(uint16) string) (string, error) {
		lis, addr, err := listen(name)
		if err != nil {
			return "", err
		}
		srv := rpc.NewServer(mux)
		srv.SetTrace(c.tracerFor(name), opName)
		c.serversMu.Lock()
		c.servers = append(c.servers, srv)
		c.srvByAddr[addr] = srv
		c.serversMu.Unlock()
		go srv.Serve(lis)
		return addr, nil
	}

	// Metadata providers + DHT.
	for i := 0; i < cfg.MetaProviders; i++ {
		svc := dht.NewMetaService(store.NewMemStore())
		addr, err := serve(fmt.Sprintf("meta-%d", i), svc.Mux(), dht.MethodName)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.MetaAddrs = append(c.MetaAddrs, addr)
		c.metaSvcs[addr] = svc
	}
	ring := dht.NewRing(c.MetaAddrs, dht.DefaultVnodes)
	dhtClient := dht.NewClient(ring, c.Pool, cfg.MetaReplication)
	c.MetaStore = mdtree.NewDHTStore(dhtClient)
	// The location overlay shares the metadata DHT: relocation records
	// are tiny KV entries under their own namespace.
	c.Overlay = repair.NewOverlay(dhtClient)

	// Version manager shards (with abort repair over the DHT, each
	// recovered from its own WAL when the deployment is durable).
	for k := 0; k < cfg.VMShards; k++ {
		vmState, err := c.newVMState(k)
		if err != nil {
			c.Stop()
			return nil, err
		}
		svc := vmanager.NewService(vmState)
		if cfg.WriteTimeout > 0 {
			svc.StartJanitor(cfg.WriteTimeout, cfg.WriteTimeout/2)
		}
		addr, err := serve(c.vmName(k), svc.Mux(), vmanager.MethodName)
		if err != nil {
			svc.StopJanitor()
			c.Stop()
			return nil, err
		}
		c.vmSvcs = append(c.vmSvcs, svc)
		c.VMAddrs = append(c.VMAddrs, addr)
	}

	// Provider manager (with the liveness-expiry loop when configured).
	c.pmSvc = pmanager.NewService(pmanager.NewState(cfg.Strategy))
	if cfg.ExpireAfter > 0 {
		c.pmSvc.StartExpiry(cfg.ExpireAfter, cfg.ExpireAfter/2)
	}
	pmAddr, err := serve("pmanager", c.pmSvc.Mux(), pmanager.MethodName)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.PMAddr = pmAddr

	// Namespace manager (the BSFS layer's file->BLOB map).
	nsState, err := c.newNSState()
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.nsSvc = namespace.NewService(nsState)
	nsAddr, err := serve("namespace", c.nsSvc.Mux(), namespace.MethodName)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.NSAddr = nsAddr

	// Data providers; each lives on its own synthetic host, mirroring
	// the paper's one-provider-per-machine deployment. The block store
	// behind each comes from the backend URL (mem:// when unset).
	storeURL := cfg.StoreURL
	if storeURL == "" {
		storeURL = "mem://"
	}
	for i := 0; i < cfg.DataProviders; i++ {
		st, err := store.OpenMember(storeURL, i)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: provider %d store: %w", i, err)
		}
		c.provStores = append(c.provStores, st)
		svc := provider.NewService(st, provider.WithForwarder(c.Pool))
		addr, err := serve(fmt.Sprintf("provider-%d", i), svc.Mux(), provider.MethodName)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.ProviderAddrs = append(c.ProviderAddrs, addr)
		c.provSvcs[addr] = svc
		c.pmSvc.State().Register(addr, c.HostOf(i))
		if cfg.HeartbeatInterval > 0 {
			c.startHeartbeat(addr, c.HostOf(i), svc)
		}
	}

	// Repair engine: scanner + executor over the deployment's own
	// client stack. Constructed always (tests and bsfsctl-style tools
	// drive RunOnce directly); the background loop only runs when a
	// scan period is configured.
	c.repairEng = repair.New(repair.Config{
		VM:          vmanager.NewClient(c.Pool, c.VMAddrs...),
		PM:          pmanager.NewClient(c.Pool, c.PMAddr),
		Prov:        provider.NewClient(c.Pool),
		Meta:        c.MetaStore,
		Overlay:     c.Overlay,
		Concurrency: cfg.RepairConcurrency,
	})
	if cfg.RepairInterval > 0 {
		c.repairEng.Start(cfg.RepairInterval)
	}

	// Metrics export: every daemon's registry under its service name —
	// the same layout a multi-machine deployment gets from one
	// blobseerd -metrics-addr per daemon, collapsed onto one endpoint.
	c.exporter = metrics.NewExporter()
	for k, svc := range c.vmSvcs {
		c.exporter.Register(c.vmName(k), svc.Metrics())
	}
	c.exporter.Register("pmanager", c.pmSvc.Metrics())
	c.exporter.Register("namespace", c.nsSvc.Metrics())
	for i, addr := range c.ProviderAddrs {
		c.exporter.Register(fmt.Sprintf("provider-%d", i), c.provSvcs[addr].Metrics())
	}
	for i, addr := range c.MetaAddrs {
		c.exporter.Register(fmt.Sprintf("meta-%d", i), c.metaSvcs[addr].Metrics())
	}
	c.exporter.Register("repair", c.repairEng.Metrics())
	if cfg.MetricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", c.exporter)
		mux.Handle("/", c.exporter)
		mux.Handle("/trace", c.traceExp)
		bound, stop, err := metrics.ServeHandler(cfg.MetricsAddr, mux)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: metrics listener: %w", err)
		}
		c.metricsURL = "http://" + bound
		c.stopMetrics = stop
	}
	return c, nil
}

// tracerFor returns (creating on first use) the tracer of a named
// daemon and registers it with the deployment trace exporter. Daemon
// tracers never head-sample on their own — they record exactly the
// requests that arrive carrying a sampled trace context.
func (c *BlobSeer) tracerFor(name string) *trace.Tracer {
	c.tracersMu.Lock()
	defer c.tracersMu.Unlock()
	t, ok := c.tracers[name]
	if !ok {
		t = trace.New(name, c.Cfg.TraceBuf)
		c.tracers[name] = t
		c.traceExp.Register(t)
	}
	return t
}

// startHeartbeat launches the provider's liveness loop: every interval
// it reports itself (with live store statistics) to the provider
// manager over the same RPC path a real daemon uses, re-registering if
// the manager has lost its membership.
func (c *BlobSeer) startHeartbeat(addr, host string, svc *provider.Service) {
	stop := make(chan struct{})
	c.heartbeatMu.Lock()
	c.stopHeartbeat[addr] = stop
	c.heartbeatMu.Unlock()
	pm := pmanager.NewClient(c.Pool, c.PMAddr)
	interval := c.Cfg.HeartbeatInterval
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				if known, err := pm.Heartbeat(ctx, addr, svc.Store().Stats()); err == nil && !known {
					_ = pm.Register(ctx, addr, host)
				}
				cancel()
			}
		}
	}()
}

// KillProvider simulates a provider crash: its RPC server goes down
// (in-flight and future calls fail at the transport level) and its
// heartbeat loop stops, so only failure feedback or heartbeat expiry
// can remove it from the allocation pool — exactly a real crash's
// signature. The provider's store is NOT cleared: a later repair pass
// must not depend on it, but tests can inspect it.
func (c *BlobSeer) KillProvider(addr string) {
	c.heartbeatMu.Lock()
	if stop, ok := c.stopHeartbeat[addr]; ok {
		close(stop)
		delete(c.stopHeartbeat, addr)
	}
	c.heartbeatMu.Unlock()
	c.serversMu.Lock()
	srv, ok := c.srvByAddr[addr]
	c.serversMu.Unlock()
	if ok {
		srv.Close()
	}
}

// RepairEngine exposes the deployment's repair plane (tests, tools).
func (c *BlobSeer) RepairEngine() *repair.Engine { return c.repairEng }

// Exporter exposes the deployment-wide metrics exporter. It is always
// populated (register extra registries, snapshot in tests); an HTTP
// listener fronts it only when Config.MetricsAddr was set.
func (c *BlobSeer) Exporter() *metrics.Exporter { return c.exporter }

// MetricsURL returns the served metrics endpoint ("http://host:port"),
// or "" when Config.MetricsAddr was empty. The same listener answers
// /trace queries.
func (c *BlobSeer) MetricsURL() string { return c.metricsURL }

// TraceExporter exposes the deployment-wide trace exporter: every
// daemon's span buffer plus the shared client tracer (tests stitch
// trees from it directly; the metrics listener serves it at /trace).
func (c *BlobSeer) TraceExporter() *trace.Exporter { return c.traceExp }

// ClientTracer exposes the tracer shared by every client of this
// deployment (tests adjust sampling per-scenario with SetSampling).
func (c *BlobSeer) ClientTracer() *trace.Tracer { return c.clientTracer }

// HostOf returns the synthetic host name of data provider i.
func (c *BlobSeer) HostOf(i int) string { return fmt.Sprintf("host-%d", i) }

// NewClient returns a core client for this deployment. host may be ""
// (a dedicated, non-co-deployed node, as in the paper's microbenchmark
// boot-up phases) or one of HostOf(i) for a co-deployed client.
func (c *BlobSeer) NewClient(host string) *core.Client {
	return c.newClient(host, nil)
}

func (c *BlobSeer) newClient(host string, reg *metrics.Registry) *core.Client {
	return core.NewClient(core.Config{
		Pool:          c.Pool,
		VMAddrs:       c.VMAddrs,
		PMAddr:        c.PMAddr,
		MetaStore:     c.MetaStore,
		Host:          host,
		MetaCacheSize: c.Cfg.MetaCacheSize,
		Overlay:       c.Overlay,
		Metrics:       reg,
		Tracer:        c.clientTracer,
	})
}

// NewMeteredClient returns a core client wired to a fresh metrics
// registry, registered with the deployment exporter under name — so a
// scrape shows the client side (resolve latency, cache hit rates,
// stream pipeline gauges) next to every daemon.
func (c *BlobSeer) NewMeteredClient(host, name string) (*core.Client, *metrics.Registry) {
	reg := metrics.NewRegistry()
	c.exporter.Register(name, reg)
	return c.newClient(host, reg), reg
}

// NewMeteredBSFS returns a BSFS client whose core client exports its
// metrics through the deployment exporter under name.
func (c *BlobSeer) NewMeteredBSFS(host, name string) (*bsfs.FS, error) {
	cl, _ := c.NewMeteredClient(host, name)
	return c.newBSFS(cl)
}

// NewBSFS returns a BSFS file-system client for this deployment.
func (c *BlobSeer) NewBSFS(host string) (*bsfs.FS, error) {
	return c.newBSFS(c.NewClient(host))
}

func (c *BlobSeer) newBSFS(cl *core.Client) (*bsfs.FS, error) {
	return bsfs.New(bsfs.Config{
		Core:             cl,
		NS:               namespace.NewClient(c.Pool, c.NSAddr),
		BlockSize:        c.Cfg.BlockSize,
		Replication:      c.Cfg.Replication,
		ReadaheadBlocks:  c.Cfg.ReadaheadBlocks,
		WriteBehindDepth: c.Cfg.WriteBehindDepth,
		DisableCache:     c.Cfg.DisableCache,
	})
}

// VMService exposes the version manager — shard 0 when sharded (tests).
func (c *BlobSeer) VMService() *vmanager.Service { return c.vmSvcs[0] }

// VMServiceShard exposes one version-manager shard (tests).
func (c *BlobSeer) VMServiceShard(k int) *vmanager.Service { return c.vmSvcs[k] }

// VMShards reports the configured shard count.
func (c *BlobSeer) VMShards() int { return len(c.vmSvcs) }

// NSService exposes the namespace manager (tests).
func (c *BlobSeer) NSService() *namespace.Service { return c.nsSvc }

// PMService exposes the provider manager (tests, layout metrics).
func (c *BlobSeer) PMService() *pmanager.Service { return c.pmSvc }

// ProviderService returns the daemon behind a provider address (tests,
// failure injection).
func (c *BlobSeer) ProviderService(addr string) *provider.Service { return c.provSvcs[addr] }

// MetaService returns the daemon behind a metadata provider address
// (tests, failure injection).
func (c *BlobSeer) MetaService(addr string) *dht.MetaService { return c.metaSvcs[addr] }

// Stop shuts every daemon down.
func (c *BlobSeer) Stop() {
	if c.stopMetrics != nil {
		_ = c.stopMetrics()
		c.stopMetrics = nil
	}
	if c.repairEng != nil {
		c.repairEng.Stop()
	}
	c.heartbeatMu.Lock()
	for addr, stop := range c.stopHeartbeat {
		close(stop)
		delete(c.stopHeartbeat, addr)
	}
	c.heartbeatMu.Unlock()
	if c.pmSvc != nil {
		c.pmSvc.StopExpiry()
	}
	for _, svc := range c.vmSvcs {
		svc.StopJanitor()
	}
	c.serversMu.Lock()
	servers := append([]*rpc.Server(nil), c.servers...)
	c.serversMu.Unlock()
	for _, s := range servers {
		s.Sever()
	}
	// Parked WaitPublished handlers would stall the drain below for
	// their full wait timeout; wake them now that no response can
	// reach a client.
	for _, svc := range c.vmSvcs {
		svc.State().ReleaseWaiters()
	}
	for _, s := range servers {
		s.Close()
	}
	// Graceful shutdown: flush the control-plane logs (the SIGTERM
	// path of blobseerd does the same).
	for _, svc := range c.vmSvcs {
		svc.State().CloseWAL()
	}
	if c.nsSvc != nil {
		c.nsSvc.State().CloseWAL()
	}
	// Release the provider backends (stops tiered policy loops, closes
	// HTTP connection pools).
	for _, st := range c.provStores {
		st.Close()
	}
	c.provStores = nil
	if c.Pool != nil {
		c.Pool.Close()
	}
}
