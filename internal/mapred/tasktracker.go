package mapred

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blobseer/internal/fs"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// TaskTracker RPC method numbers.
const (
	mGetMapOutput uint16 = iota + 1
)

// A tracker runs at most mapSlots maps (Hadoop 0.20's default, which
// the paper ran) and reduceSlots reduces at once, and asks the
// jobtracker for work every poll.
const (
	mapSlots    = 2
	reduceSlots = 1
	poll        = 2 * time.Millisecond
)

// TaskTrackerConfig configures one tracker.
type TaskTrackerConfig struct {
	Addr string // this tracker's RPC endpoint (shuffle serving)
	Host string // physical host (locality matching)
	FS   fs.FileSystem
	JT   *JTClient
	Pool *rpc.Pool
}

// TaskTracker executes map and reduce tasks and serves map outputs to
// reducers (the shuffle).
type TaskTracker struct {
	cfg TaskTrackerConfig
	reg *obs.Registry

	mu      sync.Mutex
	outputs map[string][]byte // shuffle key -> serialized KVs
	running [2]int            // tasks in flight, by type (taskMap, taskReduce)

	stop chan struct{}
	wg   sync.WaitGroup
}

func shuffleKey(jobID uint64, mapTask, partition int) string {
	return fmt.Sprintf("%d/%d/%d", jobID, mapTask, partition)
}

// NewTaskTracker returns an unstarted tracker.
func NewTaskTracker(cfg TaskTrackerConfig) *TaskTracker {
	return &TaskTracker{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		outputs: make(map[string][]byte),
		stop:    make(chan struct{}),
	}
}

// Metrics exposes the tracker's registry (per-method counts, errors and
// latency) for HTTP export.
func (t *TaskTracker) Metrics() *obs.Registry { return t.reg }

// Mux returns the tracker's RPC dispatch table (shuffle service),
// metered on its registry.
func (t *TaskTracker) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux(t.reg)
	m.HandleFrame(mGetMapOutput, "get_map_output", t.handleGetMapOutput)
	return m
}

func (t *TaskTracker) handleGetMapOutput(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	jobID := r.U64()
	mapTask := int(r.U32())
	partition := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	data, ok := t.outputs[shuffleKey(jobID, mapTask, partition)]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("mapred: no output for job %d map %d partition %d", jobID, mapTask, partition)
	}
	b := rpc.NewFrame(4 + len(data))
	b.Bytes32(data)
	return b, nil
}

// Start launches the heartbeat loop.
func (t *TaskTracker) Start() {
	t.wg.Add(1)
	go t.loop()
}

// Stop terminates a started tracker, once, and waits for in-flight
// tasks.
func (t *TaskTracker) Stop() {
	close(t.stop)
	t.wg.Wait()
}

func (t *TaskTracker) loop() {
	defer t.wg.Done()
	ctx := context.Background()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		t.mu.Lock()
		maps, reduces := mapSlots-t.running[taskMap], reduceSlots-t.running[taskReduce]
		t.mu.Unlock()
		if maps == 0 && reduces == 0 {
			continue
		}
		asgs, gc, err := t.cfg.JT.RequestTasks(ctx, t.cfg.Addr, t.cfg.Host, maps, reduces)
		if err != nil {
			continue // jobtracker unreachable; retry next beat
		}
		if len(gc) > 0 {
			t.gcJobs(gc)
		}
		for _, a := range asgs {
			t.mu.Lock()
			t.running[a.Type]++
			t.mu.Unlock()
			t.wg.Add(1)
			go func(a Assignment) {
				defer t.wg.Done()
				err := t.runTask(ctx, a)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				_ = t.cfg.JT.Report(ctx, a.JobID, a.Type, a.TaskID, t.cfg.Addr, err == nil, msg)
				t.mu.Lock()
				t.running[a.Type]--
				t.mu.Unlock()
			}(a)
		}
	}
}

func (t *TaskTracker) gcJobs(ids []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		prefix := fmt.Sprintf("%d/", id)
		for k := range t.outputs {
			if len(k) > len(prefix) && k[:len(prefix)] == prefix {
				delete(t.outputs, k)
			}
		}
	}
}

func (t *TaskTracker) runTask(ctx context.Context, a Assignment) error {
	if a.Type == taskMap {
		return t.runMap(ctx, a)
	}
	return t.runReduce(ctx, a)
}

// runMap executes one map task: read the split, apply the mapper,
// partition the output. Map-only jobs write part-m files directly (the
// RandomTextWriter pattern); jobs with reducers keep the partitions in
// memory for the shuffle.
func (t *TaskTracker) runMap(ctx context.Context, a Assignment) error {
	app, err := LookupApp(a.Conf.App)
	if err != nil {
		return err
	}
	mapper, err := app.NewMapper(&a.Conf)
	if err != nil {
		return err
	}

	if a.Conf.NumReduces == 0 {
		// Map-only: emit writes lines straight to this task's output
		// file, mirroring Hadoop's part-m-NNNNN convention.
		path := fmt.Sprintf("%s/part-m-%05d", fs.Clean(a.Conf.OutputDir), a.TaskID)
		w, err := t.cfg.FS.Create(ctx, path, true)
		if err != nil {
			return err
		}
		emit := func(k, v string) error {
			_, err := fmt.Fprintf(w, "%s\t%s\n", k, v)
			return err
		}
		if err := t.feedMapper(ctx, a, mapper, emit); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	}

	parts := make([][]KV, a.Conf.NumReduces)
	emit := func(k, v string) error {
		p := partitionOf(k, a.Conf.NumReduces)
		parts[p] = append(parts[p], KV{Key: k, Value: v})
		return nil
	}
	if err := t.feedMapper(ctx, a, mapper, emit); err != nil {
		return err
	}
	t.mu.Lock()
	for p, kvs := range parts {
		sortKVs(kvs)
		t.outputs[shuffleKey(a.JobID, a.TaskID, p)] = encodeKVs(kvs)
	}
	t.mu.Unlock()
	return nil
}

// feedMapper streams the split's records through the mapper.
func (t *TaskTracker) feedMapper(ctx context.Context, a Assignment, mapper Mapper, emit Emit) error {
	if a.Split.Synthetic {
		rec := Record{
			Key:   fmt.Sprintf("%d", a.Split.SynthSeq),
			Value: fmt.Sprintf("%d", a.Split.SynthSize),
		}
		return mapper.Map(ctx, rec, emit)
	}
	lr, err := newLineReader(ctx, t.cfg.FS, a.Split, a.Conf.InputVersion)
	if err != nil {
		return err
	}
	defer lr.close()
	for {
		rec, ok, err := lr.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := mapper.Map(ctx, rec, emit); err != nil {
			return err
		}
	}
}

// runReduce fetches its partition from every map's tracker, merges by
// key, applies the reducer and writes the output file — or appends to
// the shared output file when the job asks for the concurrent-append
// mode of Section V-F.
func (t *TaskTracker) runReduce(ctx context.Context, a Assignment) error {
	app, err := LookupApp(a.Conf.App)
	if err != nil {
		return err
	}
	if app.NewReducer == nil {
		return fmt.Errorf("mapred: app %q has no reducer", a.Conf.App)
	}
	reducer, err := app.NewReducer(&a.Conf)
	if err != nil {
		return err
	}

	// Shuffle: pull this partition from every map output.
	var all []KV
	for mapTask := 0; mapTask < a.NumMaps; mapTask++ {
		addr := a.MapAddrs[mapTask]
		kvs, err := t.fetchMapOutput(ctx, addr, a.JobID, mapTask, a.TaskID)
		if err != nil {
			return fmt.Errorf("mapred: shuffle from %s: %w", addr, err)
		}
		all = append(all, kvs...)
	}
	sortKVs(all)

	var w fs.Writer
	if a.Conf.SharedOutput {
		shared := fs.Clean(a.Conf.OutputDir) + "/output"
		w, err = t.cfg.FS.Append(ctx, shared)
		if err != nil {
			// HDFS has no append: fall back to per-reducer part files,
			// the behaviour the paper describes as Hadoop's status quo.
			w, err = t.cfg.FS.Create(ctx, fmt.Sprintf("%s/part-r-%05d", fs.Clean(a.Conf.OutputDir), a.TaskID), true)
		}
	} else {
		w, err = t.cfg.FS.Create(ctx, fmt.Sprintf("%s/part-r-%05d", fs.Clean(a.Conf.OutputDir), a.TaskID), true)
	}
	if err != nil {
		return err
	}
	emit := func(k, v string) error {
		_, err := fmt.Fprintf(w, "%s\t%s\n", k, v)
		return err
	}
	// Group runs of equal keys.
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].Key == all[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for _, kv := range all[i:j] {
			values = append(values, kv.Value)
		}
		if err := reducer.Reduce(ctx, all[i].Key, values, emit); err != nil {
			w.Close()
			return err
		}
		i = j
	}
	return w.Close()
}

func (t *TaskTracker) fetchMapOutput(ctx context.Context, addr string, jobID uint64, mapTask, partition int) ([]KV, error) {
	if addr == t.cfg.Addr {
		// Local shortcut: reducers co-located with the map output.
		t.mu.Lock()
		data, ok := t.outputs[shuffleKey(jobID, mapTask, partition)]
		t.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("mapred: local output missing")
		}
		return decodeKVs(data)
	}
	// One attempt: a failed fetch fails the reduce task.
	var kvs []KV
	err := t.cfg.Pool.Call(ctx, rpc.Backoff{}, addr, mGetMapOutput, 16, func(b *wire.Buffer) {
		b.U64(jobID)
		b.U32(uint32(mapTask))
		b.U32(uint32(partition))
	}, func(p []byte) (err error) {
		r := wire.NewReader(p)
		data := r.Bytes32()
		if err = r.Err(); err == nil {
			kvs, err = decodeKVs(data) // copies every key and value out of p
		}
		return err
	})
	return kvs, err
}
