package cluster

import (
	"fmt"
	"time"

	"blobseer/internal/fs"
	"blobseer/internal/mapred"
	"blobseer/internal/rpc"
)

// MapRedConfig describes a Map/Reduce deployment over some storage
// layer. FSFor builds a FileSystem client for a given host — the
// co-deployment knob: passing the storage cluster's HostOf(i) for
// tracker i reproduces the paper's "tasktracker co-deployed with a
// datanode/provider on the same physical machine".
type MapRedConfig struct {
	Trackers    int
	MapSlots    int
	ReduceSlots int
	Poll        time.Duration
	FSFor       func(host string) (fs.FileSystem, error)
	Hosts       []string // host of each tracker; default host-0..host-N-1
}

func (c *MapRedConfig) fill() {
	if c.Trackers == 0 {
		c.Trackers = 3
	}
	if c.Poll == 0 {
		c.Poll = 2 * time.Millisecond
	}
	if c.Hosts == nil {
		for i := 0; i < c.Trackers; i++ {
			c.Hosts = append(c.Hosts, fmt.Sprintf("host-%d", i))
		}
	}
}

// MapRed is a running Map/Reduce deployment (jobtracker +
// tasktrackers) on its own in-process control network.
type MapRed struct {
	Cfg MapRedConfig
	fabric
	JTAddr string

	trackers []*mapred.TaskTracker
	servers  []*rpc.Server
}

// StartMapRed deploys the engine. jtFS is the FileSystem the jobtracker
// uses for split computation (typically FSFor("")).
func StartMapRed(cfg MapRedConfig) (*MapRed, error) {
	cfg.fill()
	if cfg.FSFor == nil {
		return nil, fmt.Errorf("cluster: MapRedConfig.FSFor is required")
	}
	m := &MapRed{Cfg: cfg}
	m.init(false)

	jtFS, err := cfg.FSFor("")
	if err != nil {
		return nil, err
	}
	jtSvc := mapred.NewJTService(mapred.NewJobTracker(jtFS))
	lis, err := m.listen("jobtracker", "")
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer(jtSvc.Mux())
	m.servers = append(m.servers, srv)
	go srv.Serve(lis)
	m.JTAddr = "jobtracker"

	for i := 0; i < cfg.Trackers; i++ {
		host := cfg.Hosts[i]
		tfs, err := cfg.FSFor(host)
		if err != nil {
			m.Stop()
			return nil, err
		}
		addr := fmt.Sprintf("tracker-%d", i)
		tt := mapred.NewTaskTracker(mapred.TaskTrackerConfig{
			Addr:        addr,
			Host:        host,
			FS:          tfs,
			JT:          mapred.NewJTClient(m.Pool, m.JTAddr),
			Pool:        m.Pool,
			MapSlots:    cfg.MapSlots,
			ReduceSlots: cfg.ReduceSlots,
			Poll:        cfg.Poll,
		})
		tlis, err := m.listen(addr, "")
		if err != nil {
			m.Stop()
			return nil, err
		}
		tsrv := rpc.NewServer(tt.Mux())
		m.servers = append(m.servers, tsrv)
		go tsrv.Serve(tlis)
		tt.Start()
		m.trackers = append(m.trackers, tt)
	}
	return m, nil
}

// Client returns a jobtracker client for submissions.
func (m *MapRed) Client() *mapred.JTClient {
	return mapred.NewJTClient(m.Pool, m.JTAddr)
}

// Stop shuts the deployment down.
func (m *MapRed) Stop() {
	for _, tt := range m.trackers {
		tt.Stop()
	}
	for _, s := range m.servers {
		s.Close()
	}
	m.stop()
}
