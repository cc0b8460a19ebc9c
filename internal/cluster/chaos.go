package cluster

import "fmt"

// This file is the control-plane half of the chaos harness: crash and
// restart injection for the version manager and the namespace manager,
// mirroring KillProvider for the data plane. A "crash" is node.Node.Kill:
// the RPC server goes down (in-flight and future calls fail at the
// transport level, the signature clients see from a real dead process)
// and the in-memory state is dropped; a "restart" starts the same node
// configuration again on the same address, which rebuilds the state from
// the WAL — or from nothing when the deployment runs without one, which
// is exactly the data-loss ablation AblationCrashRecovery measures.

// restart starts the killed daemon at addr again: same configuration,
// same address.
func (c *BlobSeer) restart(addr string) error {
	_, err := c.startNode(c.node(addr).Config(), addr)
	return err
}

// KillVMShard crashes version-manager shard k: its server goes down
// mid-flight, its janitor stops, and its WAL is released so a restart
// can reopen it. Pending WaitPublished waiters on that shard die with
// the server — their clients see a transport failure and (with the
// retrying client) re-arm against the recovered instance. Sibling
// shards are untouched and keep publishing throughout.
//
// In-process we cannot kill -9 the page cache; closing the log is the
// closest faithful crash point. Every client-acknowledged publish was
// AppendSync'd before its ack, so the interesting durability property
// is still exercised.
func (c *BlobSeer) KillVMShard(k int) { c.node(c.VMAddrs[k]).Kill() }

// RestartVMShard recovers shard k from its WAL (or from nothing
// without one) and serves it on its original address.
func (c *BlobSeer) RestartVMShard(k int) error {
	if err := c.restart(c.VMAddrs[k]); err != nil {
		return fmt.Errorf("cluster: restart vmanager shard %d: %w", k, err)
	}
	return nil
}

// KillVManager crashes every version-manager shard (the whole control
// plane; single-shard deployments keep their historical semantics).
func (c *BlobSeer) KillVManager() {
	for k := range c.VMAddrs {
		c.KillVMShard(k)
	}
}

// RestartVManager recovers every shard from its WAL (or from nothing
// without one) and serves each on its original address.
func (c *BlobSeer) RestartVManager() error {
	for k := range c.VMAddrs {
		if err := c.RestartVMShard(k); err != nil {
			return err
		}
	}
	return nil
}

// KillNamespace crashes the namespace manager.
func (c *BlobSeer) KillNamespace() { c.node(c.NSAddr).Kill() }

// RestartNamespace recovers the namespace from its WAL and serves it
// on the original address.
func (c *BlobSeer) RestartNamespace() error {
	if err := c.restart(c.NSAddr); err != nil {
		return fmt.Errorf("cluster: restart namespace: %w", err)
	}
	return nil
}
