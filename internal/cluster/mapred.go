package cluster

import (
	"errors"
	"fmt"

	"blobseer/internal/fs"
	"blobseer/internal/mapred"
	"blobseer/internal/node"
	"blobseer/internal/obs"
)

// MapRedConfig describes a Map/Reduce deployment over some storage
// layer. Tracker i runs on host-i, the host both storage deployments
// give their node i (HostOf(i)), and FSFor builds each tracker's
// FileSystem client for its host: the paper's tasktracker co-deployed
// with a provider or datanode on the same physical machine.
type MapRedConfig struct {
	Trackers int // default 3
	FSFor    func(host string) (fs.FileSystem, error)
}

// MapRed is a running Map/Reduce deployment (jobtracker +
// tasktrackers) on its own in-process control network.
type MapRed struct {
	Cfg MapRedConfig
	fabric
	JTAddr string
}

// StartMapRed deploys the engine: a jobtracker, which computes splits
// through FSFor(""), and the trackers.
func StartMapRed(cfg MapRedConfig) (*MapRed, error) {
	if cfg.Trackers == 0 {
		cfg.Trackers = 3
	}
	if cfg.FSFor == nil {
		return nil, errors.New("cluster: MapRedConfig.FSFor is required")
	}
	m := &MapRed{Cfg: cfg}
	m.init(false)
	if err := m.start(); err != nil {
		m.Stop()
		return nil, err
	}
	return m, nil
}

func (m *MapRed) start() error {
	jtFS, err := m.Cfg.FSFor("")
	if err != nil {
		return err
	}
	jt, err := m.startNode(node.Config{Role: node.JobTracker, Plane: obs.NewPlane("jobtracker"), FS: jtFS}, "")
	if err != nil {
		return err
	}
	m.JTAddr = jt.Addr
	for i := 0; i < m.Cfg.Trackers; i++ {
		host := fmt.Sprintf("host-%d", i)
		tfs, err := m.Cfg.FSFor(host)
		if err != nil {
			return err
		}
		if _, err := m.startNode(node.Config{
			Role: node.TaskTracker, Plane: obs.NewPlane(trackerAddr(i)),
			FS: tfs, JobTrackerAddr: m.JTAddr, Host: host,
		}, ""); err != nil {
			return err
		}
	}
	return nil
}

// trackerAddr is tracker i's address: on the in-process network a node
// listens under its plane's name.
func trackerAddr(i int) string { return fmt.Sprintf("tracker-%d", i) }

// Client returns a jobtracker client for submissions.
func (m *MapRed) Client() *mapred.JTClient {
	return mapred.NewJTClient(m.Pool, m.JTAddr)
}

// Stop shuts the deployment down: the trackers, then the jobtracker
// their last reports go to.
func (m *MapRed) Stop() {
	addrs := make([]string, 0, m.Cfg.Trackers+1)
	for i := 0; i < m.Cfg.Trackers; i++ {
		addrs = append(addrs, trackerAddr(i))
	}
	m.stop(append(addrs, m.JTAddr)...)
}
