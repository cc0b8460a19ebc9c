package cluster

import (
	"fmt"
	"net"
	"path/filepath"

	"blobseer/internal/namespace"
	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

// This file is the control-plane half of the chaos harness: crash and
// restart injection for the version manager and the namespace manager,
// mirroring KillProvider for the data plane. A "crash" closes the RPC
// server (in-flight and future calls fail at the transport level, the
// signature clients see from a real dead process) and drops the
// in-memory state; "restart" rebuilds the state from the WAL — or from
// nothing when the deployment runs without one, which is exactly the
// data-loss ablation AblationCrashRecovery measures.

func (c *BlobSeer) walOptions() wal.Options {
	if c.Cfg.WALSyncInterval > 0 {
		return wal.Options{Policy: wal.SyncInterval, Interval: c.Cfg.WALSyncInterval}
	}
	return wal.Options{Policy: wal.SyncAlways}
}

// vmName is shard k's endpoint name; shard 0 keeps the historical
// "vmanager" name so single-shard deployments are wire-identical.
func (c *BlobSeer) vmName(k int) string {
	if k == 0 {
		return "vmanager"
	}
	return fmt.Sprintf("vmanager-%d", k)
}

// vmWALDir is shard k's log directory. A single shard keeps the
// historical flat layout; sharded deployments nest one WAL per shard,
// so kill/restart/recovery is fully independent across shards.
func (c *BlobSeer) vmWALDir(k int) string {
	if c.Cfg.VMShards <= 1 {
		return filepath.Join(c.Cfg.DataDir, "vmanager")
	}
	return filepath.Join(c.Cfg.DataDir, "vmanager", fmt.Sprintf("shard-%d", k))
}

// newVMState builds shard k's version-manager core: recovered from its
// WAL when DataDir is set, fresh and volatile otherwise.
func (c *BlobSeer) newVMState(k int) (*vmanager.State, error) {
	repairer := vmanager.MetadataRepairer(c.MetaStore)
	si := vmanager.ShardInfo{Index: k, Count: c.Cfg.VMShards}
	if c.Cfg.DataDir == "" {
		return vmanager.NewShardState(repairer, si), nil
	}
	log, err := wal.Open(c.vmWALDir(k), c.walOptions())
	if err != nil {
		return nil, err
	}
	st, err := vmanager.RecoverShard(log, repairer, si)
	if err != nil {
		log.Close()
		return nil, err
	}
	return st, nil
}

// newNSState builds the namespace core, WAL-recovered when durable.
func (c *BlobSeer) newNSState() (*namespace.State, error) {
	creator := namespace.VMBlobCreator(vmanager.NewClient(c.Pool, c.VMAddrs...))
	if c.Cfg.DataDir == "" {
		return namespace.NewState(creator), nil
	}
	log, err := wal.Open(filepath.Join(c.Cfg.DataDir, "namespace"), c.walOptions())
	if err != nil {
		return nil, err
	}
	st, err := namespace.Recover(log, creator)
	if err != nil {
		log.Close()
		return nil, err
	}
	return st, nil
}

// relisten re-binds a control service's endpoint after a restart: the
// same inproc name, or the same TCP host:port (the restarted daemon of
// a real deployment comes back on its configured address).
func (c *BlobSeer) relisten(name, addr string) (net.Listener, error) {
	if c.Cfg.UseTCP {
		return rpc.ListenTCP(addr)
	}
	return c.net.Listen(name)
}

// takeServer detaches a service's server from the registry; the
// caller owns its shutdown (Sever/Close), so a kill can unblock
// parked handlers between severing the conns and draining.
func (c *BlobSeer) takeServer(addr string) *rpc.Server {
	c.serversMu.Lock()
	srv := c.srvByAddr[addr]
	delete(c.srvByAddr, addr)
	c.serversMu.Unlock()
	return srv
}

func (c *BlobSeer) addServer(addr string, srv *rpc.Server) {
	c.serversMu.Lock()
	c.servers = append(c.servers, srv)
	c.srvByAddr[addr] = srv
	c.serversMu.Unlock()
}

// KillVMShard crashes version-manager shard k: its server goes down
// mid-flight, its janitor stops, and its WAL is released so a restart
// can reopen it. Pending WaitPublished waiters on that shard die with
// the server — their clients see a transport failure and (with the
// retrying client) re-arm against the recovered instance. Sibling
// shards are untouched and keep publishing throughout.
func (c *BlobSeer) KillVMShard(k int) {
	svc := c.vmSvcs[k]
	svc.StopJanitor()
	// Sever conns first (no response can reach a client), then wake
	// parked WaitPublished handlers, then drain. Without the release a
	// "crash" would block on armed waiters for their full timeout.
	srv := c.takeServer(c.VMAddrs[k])
	if srv != nil {
		srv.Sever()
	}
	svc.State().ReleaseWaiters()
	if srv != nil {
		srv.Close()
	}
	// In-process we cannot kill -9 the page cache; closing the log is
	// the closest faithful crash point. Every client-acknowledged
	// publish was AppendSync'd before its ack, so the interesting
	// durability property is still exercised.
	svc.State().CloseWAL()
}

// RestartVMShard recovers shard k from its WAL (or from nothing
// without one) and serves it on its original address.
func (c *BlobSeer) RestartVMShard(k int) error {
	st, err := c.newVMState(k)
	if err != nil {
		return fmt.Errorf("cluster: restart vmanager shard %d: %w", k, err)
	}
	svc := vmanager.NewService(st)
	if c.Cfg.WriteTimeout > 0 {
		svc.StartJanitor(c.Cfg.WriteTimeout, c.Cfg.WriteTimeout/2)
	}
	lis, err := c.relisten(c.vmName(k), c.VMAddrs[k])
	if err != nil {
		svc.StopJanitor()
		return fmt.Errorf("cluster: restart vmanager shard %d: %w", k, err)
	}
	c.vmSvcs[k] = svc
	srv := rpc.NewServer(svc.Mux())
	// The restarted shard keeps the original tracer: spans recorded
	// before the crash and after the recovery stitch into one tree.
	srv.SetTrace(c.tracerFor(c.vmName(k)), vmanager.MethodName)
	c.addServer(c.VMAddrs[k], srv)
	go srv.Serve(lis)
	return nil
}

// KillVManager crashes every version-manager shard (the whole control
// plane; single-shard deployments keep their historical semantics).
func (c *BlobSeer) KillVManager() {
	for k := range c.vmSvcs {
		c.KillVMShard(k)
	}
}

// RestartVManager recovers every shard from its WAL (or from nothing
// without one) and serves each on its original address.
func (c *BlobSeer) RestartVManager() error {
	for k := range c.vmSvcs {
		if err := c.RestartVMShard(k); err != nil {
			return err
		}
	}
	return nil
}

// KillNamespace crashes the namespace manager.
func (c *BlobSeer) KillNamespace() {
	if srv := c.takeServer(c.NSAddr); srv != nil {
		srv.Close()
	}
	c.nsSvc.State().CloseWAL()
}

// RestartNamespace recovers the namespace from its WAL and serves it
// on the original address.
func (c *BlobSeer) RestartNamespace() error {
	st, err := c.newNSState()
	if err != nil {
		return fmt.Errorf("cluster: restart namespace: %w", err)
	}
	c.nsSvc = namespace.NewService(st)
	lis, err := c.relisten("namespace", c.NSAddr)
	if err != nil {
		return fmt.Errorf("cluster: restart namespace: %w", err)
	}
	srv := rpc.NewServer(c.nsSvc.Mux())
	srv.SetTrace(c.tracerFor("namespace"), namespace.MethodName)
	c.addServer(c.NSAddr, srv)
	go srv.Serve(lis)
	return nil
}
