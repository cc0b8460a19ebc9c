// Package cluster assembles whole deployments in one process: BlobSeer
// (every daemon of Figure 2), the HDFS-like baseline and the Map/Reduce
// engine, each daemon started as a node.Node over an in-process or
// loopback-TCP transport, exactly as the automated Grid'5000 deployment
// of Section V-A starts one daemon per physical machine. Tests, examples
// and the CLI tools all start clusters through this package.
package cluster

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/node"
	"blobseer/internal/obs"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
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
	MetaCacheSize   int // ignored: clients read no tree node, so they keep no node cache (core.Config.MetaCacheSize)
	Strategy        placement.Strategy
	WriteTimeout    time.Duration // janitor abort threshold; 0 disables
	UseTCP          bool          // listen on loopback TCP instead of inproc
	// BSFS streaming-pipeline tunables (Section IV-B): 0 picks the
	// bsfs defaults, negative disables them (nothing read ahead, every
	// block commit awaited).
	ReadaheadBlocks  int // reader async prefetch window, in blocks
	WriteBehindDepth int // writer background commits in flight

	// Self-healing replication (the repair plane). Heartbeats and the
	// expiry ticker form the liveness loop; RepairEngine().RunOnce
	// restores redundancy after provider loss. Both default off so the
	// paper-faithful experiments keep their exact traffic shape.
	HeartbeatInterval time.Duration // providers heartbeat store stats to the pmanager (0 disables)
	ExpireAfter       time.Duration // pmanager expires providers silent this long (0 disables)

	// VMShards runs K independent version-manager shard services
	// instead of one. Shard k owns the blob IDs with
	// vmanager.ShardOf(id, K) == k and keeps its own WAL (under
	// DataDir/vmanager/shard-<k> when durable); every vmanager.Client
	// routes per-blob calls by the same rule, so publish throughput
	// scales with K. 0/1 keeps the classic single manager.
	VMShards int

	// Crash durability (the control-plane WAL). DataDir enables
	// write-ahead logging for the version manager and the namespace
	// under DataDir/vmanager and DataDir/namespace, fsynced per record
	// (no acknowledged operation is ever lost); both recover their state
	// from the logs at start. Empty keeps the historical in-memory-only
	// control plane.
	DataDir string
	// CallTimeout is the per-call RPC I/O deadline applied to the
	// deployment's shared pool: calls against a hung peer fail (and
	// become retryable) after this long. 0 disables, the historical
	// behavior.
	CallTimeout time.Duration

	// MetricsAddr, when non-empty, serves the whole deployment's planes
	// over HTTP at this address, metrics at /metrics and spans at
	// /trace ("127.0.0.1:0" picks a free port; MetricsURL reports the
	// bound endpoint). Every daemon's plane is in Obs() under its service
	// name regardless — the address only controls whether an HTTP
	// listener fronts them.
	MetricsAddr string

	// Distributed tracing. Every daemon always carries a tracer (it
	// records only requests that arrive already-traced, so an untraced
	// workload costs nothing); TraceSample sets the client-side head
	// sampling probability in [0,1] and TraceSlow force-samples any
	// client root operation slower than the threshold.
	TraceSample float64
	TraceSlow   time.Duration

	// StoreURL selects every data provider's block-store backend (see
	// store.Open): "mem://" (the default when empty) or "file:///path".
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
		c.ReadaheadBlocks = stream.DefaultReadahead
	}
	if c.WriteBehindDepth == 0 {
		c.WriteBehindDepth = stream.DefaultWriteBehind
	}
}

// fabric is what every deployment here is made of: a transport
// (in-process pipes or loopback TCP), a connection pool over it, and the
// nodes started on it, by address.
type fabric struct {
	Pool   *rpc.Pool
	inproc *rpc.InprocNetwork // nil: loopback TCP

	mu    sync.Mutex // a restart replaces a node while tests look others up
	nodes map[string]*node.Node
}

func (f *fabric) init(tcp bool) {
	f.nodes = make(map[string]*node.Node)
	if tcp {
		f.Pool = rpc.NewPool(rpc.TCPDialer)
		return
	}
	f.inproc = rpc.NewInprocNetwork()
	f.Pool = rpc.NewPool(f.inproc.Dial)
}

// listen binds an endpoint: name on the in-process network, or addr on
// loopback TCP, where "" picks a free port.
func (f *fabric) listen(name, addr string) (net.Listener, error) {
	if f.inproc != nil {
		return f.inproc.Listen(name)
	}
	return rpc.ListenTCP(cmp.Or(addr, "127.0.0.1:0"))
}

// startNode runs one more node on the fabric, under its plane's name. A
// restarted node passes the address it had (a real daemon comes back
// where it is configured) and takes its predecessor's place.
func (f *fabric) startNode(cfg node.Config, addr string) (*node.Node, error) {
	lis, err := f.listen(cfg.Plane.Name(), addr)
	if err != nil {
		return nil, err
	}
	cfg.Listener, cfg.Pool = lis, f.Pool
	n, err := node.Start(cfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.nodes[n.Addr] = n
	f.mu.Unlock()
	return n, nil
}

// node returns the node serving addr (nil when none was started there;
// a nil node's Stop and Kill do nothing).
func (f *fabric) node(addr string) *node.Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[addr]
}

// stop stops the nodes at addrs in that order — clients of a service
// before the service; node.Node.Stop has the order within one — and
// closes the pool.
func (f *fabric) stop(addrs ...string) {
	for _, a := range addrs {
		f.node(a).Stop()
	}
	f.Pool.Close()
}

// BlobSeer is a running deployment.
type BlobSeer struct {
	Cfg Config
	fabric
	VMAddrs       []string // every version-manager shard, in shard order (one when unsharded)
	PMAddr        string
	NSAddr        string
	ProviderAddrs []string
	MetaAddrs     []string
	MetaStore     mdtree.Store
	Overlay       *repair.Overlay

	clients   *node.Clients // the stack every NewClient/NewBSFS is built from
	repairEng *repair.Engine

	obs         *obs.Exporter // every daemon's plane and the clients' "client" plane, by name
	metricsURL  string
	stopMetrics func() error
}

// StartBlobSeer deploys all services of a BlobSeer instance.
func StartBlobSeer(cfg Config) (*BlobSeer, error) {
	cfg.fill()
	c := &BlobSeer{Cfg: cfg, obs: obs.NewExporter()}
	c.init(cfg.UseTCP)
	if cfg.CallTimeout > 0 {
		c.Pool.SetCallTimeout(cfg.CallTimeout)
	}
	if err := c.start(); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// start brings the daemons up in dependency order — the order a
// multi-machine deployment starts its blobseerd processes in.
func (c *BlobSeer) start() error {
	cfg := c.Cfg
	for i := 0; i < cfg.MetaProviders; i++ {
		n, err := c.startNode(node.Config{Role: node.Meta, Plane: c.obs.Plane(fmt.Sprintf("meta-%d", i))}, "")
		if err != nil {
			return err
		}
		c.MetaAddrs = append(c.MetaAddrs, n.Addr)
	}
	ep := node.Endpoints{Meta: c.MetaAddrs, MetaReplication: cfg.MetaReplication}

	// Version manager shards, each recovered from its own WAL when the
	// deployment is durable.
	// Shard 0 keeps the historical "vmanager" name, so a single-shard
	// deployment looks the same as ever.
	for k := 0; k < cfg.VMShards; k++ {
		name := "vmanager"
		if k > 0 {
			name = fmt.Sprintf("vmanager-%d", k)
		}
		n, err := c.startNode(node.Config{
			Role: node.VManager, Plane: c.obs.Plane(name),
			Shard:        vmanager.ShardInfo{Index: k, Count: cfg.VMShards},
			WriteTimeout: cfg.WriteTimeout, DataDir: cfg.DataDir,
		}, "")
		if err != nil {
			return err
		}
		c.VMAddrs = append(c.VMAddrs, n.Addr)
	}
	ep.VM = c.VMAddrs

	n, err := c.startNode(node.Config{Role: node.PManager, Plane: c.obs.Plane(node.PManager), Strategy: cfg.Strategy, ExpireAfter: cfg.ExpireAfter}, "")
	if err != nil {
		return err
	}
	c.PMAddr, ep.PM = n.Addr, n.Addr

	if n, err = c.startNode(node.Config{Role: node.Namespace, Plane: c.obs.Plane(node.Namespace), Endpoints: ep, DataDir: cfg.DataDir}, ""); err != nil {
		return err
	}
	c.NSAddr, ep.NS = n.Addr, n.Addr

	// Data providers; each lives on its own synthetic host, mirroring
	// the paper's one-provider-per-machine deployment, and registers
	// with the provider manager the way a real daemon does.
	for i := 0; i < cfg.DataProviders; i++ {
		n, err := c.startNode(node.Config{
			Role: node.Provider, Plane: c.obs.Plane(fmt.Sprintf("provider-%d", i)), Endpoints: ep,
			StoreURL:  strings.ReplaceAll(cfg.StoreURL, "{n}", strconv.Itoa(i)),
			Host:      c.HostOf(i),
			Heartbeat: cfg.HeartbeatInterval,
		}, "")
		if err != nil {
			return fmt.Errorf("cluster: provider %d: %w", i, err)
		}
		c.ProviderAddrs = append(c.ProviderAddrs, n.Addr)
	}

	c.clients = node.Connect(c.Pool, ep)
	c.clients.Tracer = c.obs.Plane("client").Tracer()
	c.clients.Tracer.SetSampling(cfg.TraceSample, cfg.TraceSlow)
	c.MetaStore, c.Overlay = c.clients.MetaStore, c.clients.Overlay
	// The repair engine runs over the deployment's own client stack, on
	// demand: tests and tools drive RunOnce.
	c.repairEng = c.clients.Repair()
	c.obs.Register("repair", c.repairEng.Metrics())

	// Every daemon's plane is exported under its service name — the
	// layout a multi-machine deployment gets from one blobseerd
	// -metrics-addr per daemon, collapsed onto one endpoint.
	if cfg.MetricsAddr != "" {
		bound, stop, err := c.obs.Serve(cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("cluster: metrics listener: %w", err)
		}
		c.metricsURL, c.stopMetrics = "http://"+bound, stop
	}
	return nil
}

// KillProvider simulates a provider crash: its RPC server goes down
// (in-flight and future calls fail at the transport level) and its
// heartbeat loop stops, so only failure feedback or heartbeat expiry
// can remove it from the allocation pool — exactly a real crash's
// signature. The provider's store is NOT cleared: a later repair pass
// must not depend on it, but tests can inspect it.
func (c *BlobSeer) KillProvider(addr string) { c.node(addr).Kill() }

// RepairEngine exposes the deployment's repair plane (tests, tools).
func (c *BlobSeer) RepairEngine() *repair.Engine { return c.repairEng }

// Obs exposes the deployment's planes: every daemon's under its
// service name, and "client", whose tracer every NewClient shares.
// Registering a client's Metrics() here meters it. An HTTP listener
// fronts it only when Config.MetricsAddr was set.
func (c *BlobSeer) Obs() *obs.Exporter { return c.obs }

// MetricsURL returns the served endpoint ("http://host:port") of
// /metrics and /trace, or "" when Config.MetricsAddr was empty.
func (c *BlobSeer) MetricsURL() string { return c.metricsURL }

// HostOf returns the synthetic host name of data provider i.
func (c *BlobSeer) HostOf(i int) string { return fmt.Sprintf("host-%d", i) }

// NewClient returns a core client for this deployment. host may be ""
// (a dedicated, non-co-deployed node, as in the paper's microbenchmark
// boot-up phases) or one of HostOf(i) for a co-deployed client.
func (c *BlobSeer) NewClient(host string) *core.Client {
	return c.clients.Core(host)
}

// NewBSFS returns a BSFS file-system client for this deployment.
func (c *BlobSeer) NewBSFS(host string) (*bsfs.FS, error) {
	return c.newBSFS(c.NewClient(host))
}

func (c *BlobSeer) newBSFS(cl *core.Client) (*bsfs.FS, error) {
	return c.clients.BSFS(cl, bsfs.Config{
		BlockSize:        c.Cfg.BlockSize,
		Replication:      c.Cfg.Replication,
		ReadaheadBlocks:  c.Cfg.ReadaheadBlocks,
		WriteBehindDepth: c.Cfg.WriteBehindDepth,
	})
}

// VMService exposes the version manager — shard 0 when sharded (tests).
func (c *BlobSeer) VMService() *vmanager.Service { return c.node(c.VMAddrs[0]).VM }

// VMServiceShard exposes one version-manager shard (tests).
func (c *BlobSeer) VMServiceShard(k int) *vmanager.Service { return c.node(c.VMAddrs[k]).VM }

// VMShards reports the configured shard count.
func (c *BlobSeer) VMShards() int { return len(c.VMAddrs) }

// NSService exposes the namespace manager (tests).
func (c *BlobSeer) NSService() *namespace.Service { return c.node(c.NSAddr).NS }

// PMService exposes the provider manager (tests, layout metrics).
func (c *BlobSeer) PMService() *pmanager.Service { return c.node(c.PMAddr).PM }

// ProviderService returns the daemon behind a provider address (tests,
// failure injection).
func (c *BlobSeer) ProviderService(addr string) *provider.Service { return c.node(addr).Prov }

// MetaService returns the daemon behind a metadata provider address
// (tests, failure injection).
func (c *BlobSeer) MetaService(addr string) *dht.MetaService { return c.node(addr).Meta }

// Stop shuts every daemon down.
func (c *BlobSeer) Stop() {
	if c.stopMetrics != nil {
		_ = c.stopMetrics()
		c.stopMetrics = nil
	}
	c.stop(slices.Concat(c.ProviderAddrs, []string{c.NSAddr}, c.VMAddrs, []string{c.PMAddr}, c.MetaAddrs)...)
}
