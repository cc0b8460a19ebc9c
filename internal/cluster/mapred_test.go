package cluster_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/fs"
	"blobseer/internal/mapred"
	"blobseer/internal/mapred/apps"
)

// TestMapRedRunsAsNodes: the jobtracker and the trackers are nodes, so
// each meters its methods on its own plane, and Stop ends every
// tracker's poll loop.
func TestMapRedRunsAsNodes(t *testing.T) {
	cl, err := cluster.StartBlobSeer(cluster.Config{DataProviders: 3, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	fsFor := func(host string) (fs.FileSystem, error) { return cl.NewBSFS(host) }
	mr, err := cluster.StartMapRed(cluster.MapRedConfig{Trackers: 3, FSFor: fsFor})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			mr.Stop()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fsys, err := fsFor("")
	if err != nil {
		t.Fatal(err)
	}
	w, err := fsys.Create(ctx, "/in", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // about 9 blocks: one map each
		fmt.Fprintf(w, "line %04d of blobseer\n", i)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	jt := mr.Client()
	id, err := jt.Submit(ctx, mapred.JobConf{
		Name: "grep", App: apps.GrepApp, Args: map[string]string{"pattern": "seer"},
		InputPaths: []string{"/in"}, OutputDir: "/out", NumReduces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := jt.Wait(ctx, id, 0); err != nil || st.State != mapred.JobSucceeded {
		t.Fatalf("job: %+v, %v", st, err)
	}

	jtPlane, trackers := mr.Planes()
	for _, m := range []string{"ops_submit_job", "ops_request_tasks"} {
		if n := jtPlane.Registry().Snapshot().Counters[m]; n <= 0 {
			t.Errorf("jobtracker %s = %d, want above 0", m, n)
		}
	}
	var fetches int64
	for _, p := range trackers {
		fetches += p.Registry().Snapshot().Counters["ops_get_map_output"]
	}
	if fetches <= 0 {
		t.Errorf("trackers served %d map outputs, want above 0", fetches)
	}

	mr.Stop()
	stopped = true
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "mapred.(*TaskTracker).loop") {
		t.Errorf("a tracker's poll loop outlived Stop:\n%s", stacks)
	}
}
