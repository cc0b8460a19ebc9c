// Package node is the one place that knows how a role becomes a running
// service (Start, Stop, Kill) and how a set of addresses becomes a
// client stack (Connect). The roles are the daemons of the paper's
// Figure 2 and the repair loop, the HDFS-like baseline's namenode and
// datanodes, and the Map/Reduce jobtracker and tasktrackers.
// internal/cluster runs N nodes in one process, cmd/blobseerd one node
// per process: same construction, same registration, same stop order.
package node

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"blobseer/internal/dht"
	"blobseer/internal/fs"
	"blobseer/internal/hdfs"
	"blobseer/internal/mapred"
	"blobseer/internal/namespace"
	"blobseer/internal/obs"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

// The roles a node can run.
const (
	Meta      = "meta"
	VManager  = "vmanager"
	PManager  = "pmanager"
	Namespace = "namespace"
	Provider  = "provider"
	Repair    = "repair"
	Namenode  = "namenode"
	Datanode  = "datanode"

	JobTracker  = "jobtracker"
	TaskTracker = "tasktracker"
)

// DefaultWriteTimeout is the write timeout deployments start the
// version manager with: a write assigned longer ago than this and not
// committed is aborted, so a writer that dies between assign and commit
// stalls its blob's publication for at most this long. It is the
// providers' upload TTL, after which a dead writer's unfinished blocks
// are dropped too.
const DefaultWriteTimeout = time.Minute

// Config describes one node; a role reads only the fields that name it.
type Config struct {
	Role string
	// Listener is the endpoint to serve (every role but repair). Start
	// owns it from the call on, also when Start fails.
	Listener net.Listener
	// Pool carries the node's own calls (registration, heartbeats, chain
	// forwarding, blob creation, DHT access, task polls, shuffle fetches)
	// to its peers. The caller closes it after Stop.
	Pool *rpc.Pool
	Endpoints
	NamenodeAddr   string // datanode
	JobTrackerAddr string // tasktracker

	StoreURL string        // meta, provider, datanode: store.Open URL ("" = mem://)
	Host     string        // provider, datanode, tasktracker: host label for affinity scheduling
	FS       fs.FileSystem // jobtracker, tasktracker: the storage layer jobs read and write

	Shard        vmanager.ShardInfo // vmanager: identity k/K (zero = unsharded)
	WriteTimeout time.Duration      // vmanager: abort writers silent this long (0 = never; see DefaultWriteTimeout)
	// DataDir makes vmanager and namespace durable: they journal to, and
	// recover from, DataDir/vmanager (DataDir/vmanager/shard-k when
	// sharded) and DataDir/namespace, fsyncing every record before the
	// mutation it records is acknowledged.
	DataDir string

	Strategy    placement.Strategy // pmanager, namenode
	ExpireAfter time.Duration      // pmanager: expire providers silent this long (0 = never)
	Heartbeat   time.Duration      // provider: heartbeat period (0 = none)
	BlockSize   int64              // namenode

	RepairInterval time.Duration // repair: scan period

	MetricsAddr string // serve this node's plane at /metrics and /trace here ("" = none)
	// Plane is the node's observability, and its name is the node's
	// service name in /metrics, /trace and `bsfsctl top` (nil = a fresh
	// plane named Role). Its tracer records server spans, and the role's
	// registry becomes its registry. A restarted node is handed its
	// predecessor's, so spans from before and after the outage stitch.
	Plane *obs.Plane
	Logf  func(format string, args ...any) // nil = silent
}

// Node is a running service. The role decides which one service field
// is set (a datanode is a provider service; a jobtracker sets none).
type Node struct {
	Addr string // bound address ("" for repair)

	VM     *vmanager.Service
	NS     *namespace.Service
	PM     *pmanager.Service
	Prov   *provider.Service
	Meta   *dht.MetaService
	NN     *hdfs.Service
	Repair *repair.Engine
	TT     *mapred.TaskTracker

	cfg   Config
	srv   *rpc.Server
	store store.Store
	loops []func() // stops what the role runs in the background
	kill  sync.Once
}

// Start builds the role's service, serves it on cfg.Listener, announces
// a provider or datanode to its manager and starts the role's loops.
func Start(cfg Config) (n *Node, err error) {
	if cfg.Plane == nil {
		cfg.Plane = obs.NewPlane(cfg.Role)
	}
	n = &Node{cfg: cfg}
	defer func() {
		if err != nil {
			if n.srv == nil && cfg.Listener != nil {
				cfg.Listener.Close()
			}
			n.Stop()
			n = nil
		}
	}()
	mux, err := n.build()
	if err != nil {
		return n, err
	}
	if mux != nil {
		n.Addr = cfg.Listener.Addr().String()
		n.srv = rpc.NewServer(mux)
		n.srv.SetTrace(cfg.Plane.Tracer())
		go n.srv.Serve(cfg.Listener)
		n.logf("%s listening on %s", cfg.Plane.Name(), n.Addr)
	}
	if err := n.announce(); err != nil {
		return n, err
	}
	if cfg.MetricsAddr != "" {
		bound, stop, err := obs.NewExporter(cfg.Plane).Serve(cfg.MetricsAddr)
		if err != nil {
			return n, fmt.Errorf("metrics listener on %s: %w", cfg.MetricsAddr, err)
		}
		n.loops = append(n.loops, func() { _ = stop() })
		n.logf("metrics on http://%s/metrics (traces at /trace)", bound)
	}
	return n, nil
}

// build constructs the role's service and returns its dispatch table
// (nil for repair, a pure client). The usage errors name blobseerd's
// flags: it is their caller.
func (n *Node) build() (mux *rpc.Mux, err error) {
	cfg := &n.cfg
	switch cfg.Role {
	case Meta, Provider, Datanode:
		if cfg.Role == Provider && cfg.PM == "" {
			return nil, errors.New("provider: -pmanager is required")
		}
		if cfg.Role == Datanode && cfg.NamenodeAddr == "" {
			return nil, errors.New("datanode: -namenode is required")
		}
		if n.store, err = store.Open(cmp.Or(cfg.StoreURL, "mem://")); err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		if cfg.Role == Meta {
			n.Meta = dht.NewMetaService(n.store)
			cfg.Plane.Use(n.Meta.Metrics())
			return n.Meta.Mux(), nil
		}
		// Providers and datanodes forward chain frames to the replicas
		// downstream of them: BlobSeer's chain and HDFS's pipeline.
		n.Prov = provider.NewService(n.store, provider.WithForwarder(cfg.Pool))
		cfg.Plane.Use(n.Prov.Metrics())
		return n.Prov.Mux(), nil

	case VManager:
		sub := "vmanager"
		if cfg.Shard.Count > 1 { // one WAL per shard: recovery never crosses shards
			sub = filepath.Join(sub, fmt.Sprintf("shard-%d", cfg.Shard.Index))
		}
		st, log, err := openState(n, sub,
			func(l *wal.Log) (*vmanager.State, error) { return vmanager.Recover(l, &cfg.Shard) },
			func() *vmanager.State { return vmanager.NewState(&cfg.Shard) })
		if err != nil {
			return nil, err
		}
		n.VM = vmanager.NewService(st)
		walGauges(n.VM.Metrics(), log)
		if cfg.WriteTimeout > 0 {
			n.VM.StartJanitor(cfg.WriteTimeout, cfg.WriteTimeout/2)
			n.loops = append(n.loops, n.VM.StopJanitor)
		}
		cfg.Plane.Use(n.VM.Metrics())
		return n.VM.Mux(), nil

	case PManager:
		n.PM = pmanager.NewService(pmanager.NewState(cfg.Strategy))
		if cfg.ExpireAfter > 0 {
			n.PM.StartExpiry(cfg.ExpireAfter, cfg.ExpireAfter/2)
			n.loops = append(n.loops, n.PM.StopExpiry)
		}
		cfg.Plane.Use(n.PM.Metrics())
		return n.PM.Mux(), nil

	case Namespace:
		if len(cfg.VM) == 0 {
			return nil, errors.New("namespace: -vmanager is required")
		}
		creator := namespace.VMBlobCreator(vmanager.NewClient(cfg.Pool, cfg.VM...))
		st, log, err := openState(n, "namespace",
			func(l *wal.Log) (*namespace.State, error) { return namespace.Recover(l, creator) },
			func() *namespace.State { return namespace.NewState(creator) })
		if err != nil {
			return nil, err
		}
		n.NS = namespace.NewService(st)
		walGauges(n.NS.Metrics(), log)
		cfg.Plane.Use(n.NS.Metrics())
		return n.NS.Mux(), nil

	case Namenode:
		n.NN = hdfs.NewService(hdfs.NewNamenode(cfg.BlockSize, cfg.Strategy))
		cfg.Plane.Use(n.NN.Metrics())
		return n.NN.Mux(), nil

	case JobTracker, TaskTracker:
		// Both run in-process only: blobseerd has no file system flag.
		if cfg.FS == nil || (cfg.Role == TaskTracker && cfg.JobTrackerAddr == "") {
			return nil, fmt.Errorf("%s: Config.FS and a tasktracker's JobTrackerAddr are required", cfg.Role)
		}
		if cfg.Role == JobTracker {
			jt := mapred.NewJTService(mapred.NewJobTracker(cfg.FS))
			cfg.Plane.Use(jt.Metrics())
			return jt.Mux(), nil
		}
		n.TT = mapred.NewTaskTracker(mapred.TaskTrackerConfig{
			Addr: cfg.Listener.Addr().String(), Host: cfg.Host, FS: cfg.FS,
			JT: mapred.NewJTClient(cfg.Pool, cfg.JobTrackerAddr), Pool: cfg.Pool,
		})
		cfg.Plane.Use(n.TT.Metrics())
		return n.TT.Mux(), nil

	case Repair:
		if len(cfg.VM) == 0 || cfg.PM == "" {
			return nil, errors.New("repair: -vmanager and -pmanager are required")
		}
		if cfg.RepairInterval <= 0 {
			return nil, errors.New("repair: -repair-interval must be positive")
		}
		n.Repair = Connect(cfg.Pool, cfg.Endpoints).Repair()
		cfg.Plane.Use(n.Repair.Metrics())
		n.Repair.Start(cfg.RepairInterval)
		n.loops = append(n.loops, n.Repair.Stop)
		n.logf("repair loop running (every %s)", cfg.RepairInterval)
		return nil, nil
	}
	return nil, fmt.Errorf("unknown role %q", cfg.Role)
}

// openState returns a control-plane role's state: recovered from the
// write-ahead log under DataDir/sub when the node is durable (later
// mutations are journaled there, and the log is returned), fresh and
// volatile otherwise.
func openState[S any](n *Node, sub string, recover func(*wal.Log) (S, error), fresh func() S) (st S, log *wal.Log, err error) {
	if n.cfg.DataDir == "" {
		return fresh(), nil, nil
	}
	log, err = wal.Open(filepath.Join(n.cfg.DataDir, sub), wal.Options{})
	if err != nil {
		return st, nil, fmt.Errorf("open WAL under %s: %w", n.cfg.DataDir, err)
	}
	if st, err = recover(log); err != nil {
		log.Close()
		return st, nil, fmt.Errorf("%s: recover from WAL: %w", n.cfg.Plane.Name(), err)
	}
	ws := log.Status()
	n.logf("%s: recovered from WAL (%d segment(s), %d bytes)", n.cfg.Plane.Name(), ws.Segments, ws.LogBytes)
	return st, log, nil
}

// walGauges exports a durable role's log shape on reg as the wal_*
// gauges, evaluated at scrape time. A volatile role (log nil) has none.
func walGauges(reg *obs.Registry, log *wal.Log) {
	if log == nil {
		return
	}
	gauge := func(name string, pick func(wal.Status) int64) {
		reg.GaugeFunc("wal_"+name, func() int64 { return pick(log.Status()) })
	}
	gauge("segments", func(st wal.Status) int64 { return int64(st.Segments) })
	gauge("log_bytes", func(st wal.Status) int64 { return st.LogBytes })
	gauge("records", func(st wal.Status) int64 { return int64(st.Records) })
	gauge("syncs", func(st wal.Status) int64 { return int64(st.Syncs) })
	gauge("last_sync_age_ms", func(st wal.Status) int64 {
		if st.LastSyncUnix == 0 {
			return 0
		}
		return time.Now().UnixMilli() - st.LastSyncUnix*1000
	})
	gauge("unsnapshotted", func(st wal.Status) int64 { return int64(st.LastSeq - st.SnapshotSeq) })
	gauge("snapshots", func(st wal.Status) int64 { return int64(st.Snapshots) })
	gauge("compact_failures", func(st wal.Status) int64 { return int64(st.CompactFailures) })
	gauge("stopped", func(st wal.Status) int64 {
		if st.Stopped {
			return 1
		}
		return 0
	})
}

// announce registers a storage node with its manager, so clients need
// the manager's address alone, and starts a provider's liveness loop or
// a tasktracker's poll for work.
func (n *Node) announce() error {
	cfg := &n.cfg
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	switch cfg.Role {
	case Provider:
		pm := pmanager.NewClient(cfg.Pool, cfg.PM)
		if err := pm.Register(ctx, n.Addr, cfg.Host); err != nil {
			return fmt.Errorf("register with provider manager %s: %w", cfg.PM, err)
		}
		n.logf("registered with provider manager %s as host %q", cfg.PM, cfg.Host)
		if cfg.Heartbeat > 0 {
			stop, done := make(chan struct{}), make(chan struct{})
			go n.heartbeat(pm, stop, done)
			n.loops = append(n.loops, func() { close(stop); <-done })
		}
	case Datanode:
		if err := hdfs.NewNNClient(cfg.Pool, cfg.NamenodeAddr).Register(ctx, n.Addr, cfg.Host); err != nil {
			return fmt.Errorf("register with namenode %s: %w", cfg.NamenodeAddr, err)
		}
		n.logf("registered with namenode %s as host %q", cfg.NamenodeAddr, cfg.Host)
	case TaskTracker:
		n.TT.Start()
		n.loops = append(n.loops, n.TT.Stop)
	}
	return nil
}

// heartbeat is the provider's liveness loop. Heartbeats carry live
// store statistics, so the manager's listings track what the provider
// holds; going silent for the manager's expiry window drops it from the
// allocation pool. A manager that restarted and lost its membership
// answers "unknown" and the provider registers again, so the pool
// recovers without restarting every provider.
func (n *Node) heartbeat(pm *pmanager.Client, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Heartbeat)
		known, err := pm.Heartbeat(ctx, n.Addr, n.store.Stats())
		if err == nil && !known {
			if err = pm.Register(ctx, n.Addr, n.cfg.Host); err == nil {
				n.logf("re-registered with provider manager %s", n.cfg.PM)
			}
		}
		if err != nil {
			n.logf("heartbeat to %s: %v", n.cfg.PM, err)
		}
		cancel()
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Config returns the configuration the node runs with. Starting it
// again on a fresh Listener for Addr restarts the node: same role, same
// WAL directory, same plane.
func (n *Node) Config() Config { return n.cfg }

// Kill is a crash: everything Stop does except closing the block store,
// which stays readable for whoever inspects the wreck. The order is
// what matters. Loops stop first. Then the server is severed: from here
// on no response reaches a client. Parked WaitPublished handlers are
// woken (they would stall the drain for their whole timeout) and the
// server drains. Only then is the write-ahead log closed: a mutation
// after that fails, so closing it while a handler can still answer
// would fail requests a drain lets finish.
func (n *Node) Kill() {
	if n == nil {
		return
	}
	n.kill.Do(func() {
		for _, stop := range n.loops {
			stop()
		}
		if n.srv != nil {
			n.srv.Sever()
			if n.VM != nil {
				n.VM.State().ReleaseWaiters()
			}
			n.srv.Close()
		}
		var err error
		if n.VM != nil {
			err = n.VM.State().CloseWAL()
		}
		if n.NS != nil {
			err = n.NS.State().CloseWAL()
		}
		if err != nil {
			n.logf("%s: close WAL: %v", n.cfg.Plane.Name(), err)
		}
	})
}

// Stop shuts the node down for good: Kill, then the block store is
// closed. Stopping a nil, killed or stopped node is safe.
func (n *Node) Stop() {
	n.Kill()
	if n != nil && n.store != nil {
		n.store.Close()
	}
}
