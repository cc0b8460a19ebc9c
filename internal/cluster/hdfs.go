package cluster

import (
	"fmt"

	"blobseer/internal/hdfs"
	"blobseer/internal/node"
	"blobseer/internal/obs"
	"blobseer/internal/placement"
	"blobseer/internal/provider"
	"blobseer/internal/util"
)

// HDFSConfig describes an HDFS-like baseline deployment.
type HDFSConfig struct {
	Datanodes   int
	BlockSize   int64
	Replication int
	Strategy    placement.Strategy // default: hdfs.DefaultStrategy(seed 1)
	UseTCP      bool
}

func (c *HDFSConfig) fill() {
	if c.Datanodes == 0 {
		c.Datanodes = 4
	}
	if c.BlockSize == 0 {
		c.BlockSize = util.MB
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Strategy == nil {
		c.Strategy = hdfs.DefaultStrategy(1)
	}
}

// HDFS is a running baseline deployment.
type HDFS struct {
	Cfg HDFSConfig
	fabric
	NNAddr        string
	DatanodeAddrs []string
}

// StartHDFS deploys a namenode plus datanodes.
func StartHDFS(cfg HDFSConfig) (*HDFS, error) {
	cfg.fill()
	h := &HDFS{Cfg: cfg}
	h.init(cfg.UseTCP)
	if err := h.start(); err != nil {
		h.Stop()
		return nil, err
	}
	return h, nil
}

func (h *HDFS) start() error {
	nn, err := h.startNode(node.Config{Role: node.Namenode, Plane: obs.NewPlane("namenode"), BlockSize: h.Cfg.BlockSize, Strategy: h.Cfg.Strategy}, "")
	if err != nil {
		return err
	}
	h.NNAddr = nn.Addr
	for i := 0; i < h.Cfg.Datanodes; i++ {
		dn, err := h.startNode(node.Config{
			Role: node.Datanode, Plane: obs.NewPlane(fmt.Sprintf("datanode-%d", i)),
			NamenodeAddr: h.NNAddr, Host: h.HostOf(i),
		}, "")
		if err != nil {
			return err
		}
		h.DatanodeAddrs = append(h.DatanodeAddrs, dn.Addr)
	}
	return nil
}

// HostOf returns the synthetic host name of datanode i (shared scheme
// with BlobSeer deployments so co-deployment scenarios line up).
func (h *HDFS) HostOf(i int) string { return fmt.Sprintf("host-%d", i) }

// NewFS returns an HDFS client for this deployment.
func (h *HDFS) NewFS(host string) (*hdfs.FS, error) {
	return hdfs.New(hdfs.Config{
		Pool:        h.Pool,
		NNAddr:      h.NNAddr,
		BlockSize:   h.Cfg.BlockSize,
		Replication: h.Cfg.Replication,
		Host:        host,
	})
}

// Namenode exposes the namenode core (tests, layout metrics).
func (h *HDFS) Namenode() *hdfs.Namenode { return h.node(h.NNAddr).NN.Namenode() }

// DatanodeService returns the daemon behind a datanode address.
func (h *HDFS) DatanodeService(addr string) *provider.Service { return h.node(addr).Prov }

// Stop shuts the deployment down.
func (h *HDFS) Stop() { h.stop(append(h.DatanodeAddrs, h.NNAddr)...) }
