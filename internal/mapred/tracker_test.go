package mapred

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"blobseer/internal/fs"
	"blobseer/internal/rpc"
)

// gatedApp's maps block until the gate in force opens, counting how
// many run at once. Its job has Args["maps"] synthetic splits.
const gatedApp = "test-gated"

type mapGate struct {
	open chan struct{}

	mu            sync.Mutex
	running, peak int
}

var gate *mapGate

func init() {
	RegisterApp(gatedApp, &App{
		NewMapper: func(*JobConf) (Mapper, error) { return gatedMapper{}, nil },
		MakeSplits: func(_ context.Context, _ fs.FileSystem, conf *JobConf) ([]Split, error) {
			n, err := strconv.Atoi(conf.Args["maps"])
			splits := make([]Split, n)
			for i := range splits {
				splits[i] = Split{Synthetic: true, SynthSeq: i}
			}
			return splits, err
		},
	})
}

type gatedMapper struct{}

func (gatedMapper) Map(context.Context, Record, Emit) error {
	g := gate
	g.mu.Lock()
	g.running++
	g.peak = max(g.peak, g.running)
	g.mu.Unlock()
	<-g.open
	g.mu.Lock()
	g.running--
	g.mu.Unlock()
	return nil
}

func (g *mapGate) peakNow() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// TestTrackerRunsAtMostItsMapSlots: an idle tracker with eight blocked
// maps queued fills its map slots and no more — its reduce slot does not
// take a map.
func TestTrackerRunsAtMostItsMapSlots(t *testing.T) {
	gate = &mapGate{open: make(chan struct{})}
	network := rpc.NewInprocNetwork()
	pool := rpc.NewPool(network.Dial)
	t.Cleanup(pool.Close)
	serve := func(addr string, mux *rpc.Mux) {
		lis, err := network.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(mux)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
	}
	fsys := newMemFS(1024)
	serve("jobtracker", NewJTService(NewJobTracker(fsys)).Mux())
	jt := NewJTClient(pool, "jobtracker")
	tt := NewTaskTracker(TaskTrackerConfig{Addr: "tracker", Host: "host-0", FS: fsys, JT: jt, Pool: pool})
	serve("tracker", tt.Mux())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := jt.Submit(ctx, JobConf{Name: "gated", App: gatedApp, Args: map[string]string{"maps": "8"}, OutputDir: "/out"})
	if err != nil {
		t.Fatal(err)
	}
	tt.Start()
	for gate.peakNow() < mapSlots && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(25 * poll) // room for a tracker that over-commits to start more
	peak := gate.peakNow()
	close(gate.open)
	st, err := jt.Wait(ctx, id, 0)
	tt.Stop()
	if err != nil || st.State != JobSucceeded {
		t.Fatalf("job: %+v, %v", st, err)
	}
	if peak != mapSlots {
		t.Errorf("%d maps ran at once on one tracker, want its %d map slots", peak, mapSlots)
	}
	if p := gate.peakNow(); p > mapSlots {
		t.Errorf("%d maps ran at once after the gate opened, want at most %d", p, mapSlots)
	}
}

// TestEndedJobIsCollectedOnEveryTracker: when a job ends, every tracker
// holding one of its map outputs is told once, on its next poll, to drop
// them — whichever tracker polls first, and also the tracker of a map
// that finishes after its job failed.
func TestEndedJobIsCollectedOnEveryTracker(t *testing.T) {
	for _, succeed := range []bool{true, false} {
		jt := NewJobTracker(newMemFS(1024))
		id, err := jt.Submit(context.Background(), JobConf{
			Name: "gc", App: gatedApp, Args: map[string]string{"maps": "4"}, NumReduces: 1, MaxAttempts: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mapOn := func(addr string) int {
			asgs, _ := jt.RequestTasks(addr, "", 1, 0)
			if len(asgs) != 1 || asgs[0].Type != taskMap {
				t.Fatalf("%s was assigned %+v, want one map", addr, asgs)
			}
			return asgs[0].TaskID
		}
		a, b, c, d := mapOn("A"), mapOn("B"), mapOn("C"), mapOn("D")
		jt.Report(id, taskMap, a, "A", true, "")
		jt.Report(id, taskMap, b, "B", true, "")
		if succeed {
			jt.Report(id, taskMap, c, "A", true, "")
			jt.Report(id, taskMap, d, "D", true, "")
			r, _ := jt.RequestTasks("C", "", 0, 1)
			if len(r) != 1 {
				t.Fatalf("no reduce assigned: %+v", r)
			}
			jt.Report(id, taskReduce, r[0].TaskID, "C", true, "")
		} else {
			jt.Report(id, taskMap, c, "C", false, "boom") // one attempt: the job fails
			jt.Report(id, taskMap, d, "D", true, "")      // a map still running when it failed
		}
		if st, _ := jt.Status(id); st.State == JobRunning {
			t.Fatalf("succeed=%v: job still running", succeed)
		}
		// C holds no map output of the job; A, B and D each do.
		for _, tc := range []struct {
			addr string
			want []uint64
		}{{"C", nil}, {"B", []uint64{id}}, {"A", []uint64{id}}, {"D", []uint64{id}}} {
			if _, gc := jt.RequestTasks(tc.addr, "", 0, 0); !slices.Equal(gc, tc.want) {
				t.Errorf("succeed=%v: %s's poll collects %v, want %v", succeed, tc.addr, gc, tc.want)
			}
			if _, gc := jt.RequestTasks(tc.addr, "", 0, 0); len(gc) != 0 {
				t.Errorf("succeed=%v: %s's second poll collects %v again", succeed, tc.addr, gc)
			}
		}
	}
}
