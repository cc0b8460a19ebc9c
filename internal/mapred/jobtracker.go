package mapred

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"blobseer/internal/fs"
	"blobseer/internal/obs"
	"blobseer/internal/rpc"
	"blobseer/internal/wire"
)

// Task types.
const (
	taskMap uint8 = iota
	taskReduce
)

// Task states.
type taskPhase uint8

const (
	taskPending taskPhase = iota
	taskRunning
	taskDone
)

// JobState is the lifecycle of a job.
type JobState uint8

// Job lifecycle states.
const (
	JobRunning JobState = iota
	JobSucceeded
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	default:
		return "running"
	}
}

// JobStatus is the polling snapshot returned to clients.
type JobStatus struct {
	State       JobState
	MapsTotal   int
	MapsDone    int
	ReducesDone int
	LocalMaps   int // node-local map assignments (Section V-E's "local maps")
	RemoteMaps  int // assignments that read their input remotely
	Err         string
}

type taskState struct {
	phase    taskPhase
	attempts int
}

type job struct {
	id     uint64
	conf   JobConf
	splits []Split
	maps   []taskState
	reds   []taskState

	mapsDone, redsDone    int
	localMaps, remoteMaps int
	state                 JobState
	errMsg                string
	mapOutputAddrs        []string // per map task: tracker serving its output
}

// Assignment is one task handed to a tracker.
type Assignment struct {
	JobID    uint64
	Type     uint8
	TaskID   int
	Conf     JobConf
	Split    Split    // map tasks
	NumMaps  int      // reduce tasks
	MapAddrs []string // reduce tasks: tracker addr per map task
}

// JobTracker is the scheduling core. The Service wraps it with RPC.
type JobTracker struct {
	mu      sync.Mutex
	fsys    fs.FileSystem
	nextJob uint64
	jobs    map[uint64]*job     // running, and ended within jobRetention
	running []*job              // in submission order: what a poll walks
	ended   []endedJob          // in end order: what forgetting pops
	done    map[string][]uint64 // per tracker addr: ended jobs whose map outputs it holds
}

// endedJob is a job that ended at at.
type endedJob struct {
	id uint64
	at time.Time
}

// jobRetention is how long an ended job stays known (Status answers
// for it); then the jobtracker forgets it, so that a long-running one
// holds the jobs of the last few minutes, not of its whole life. Tests
// shorten it.
var jobRetention = 10 * time.Minute

// NewJobTracker returns a jobtracker using fsys for split computation.
func NewJobTracker(fsys fs.FileSystem) *JobTracker {
	return &JobTracker{fsys: fsys, jobs: make(map[uint64]*job), done: make(map[string][]uint64)}
}

// forgetLocked drops the jobs that ended more than jobRetention ago.
// Caller holds jt.mu.
func (jt *JobTracker) forgetLocked() {
	for len(jt.ended) > 0 && time.Since(jt.ended[0].at) > jobRetention {
		delete(jt.jobs, jt.ended[0].id)
		jt.ended = jt.ended[1:]
	}
}

// Submit computes splits and enqueues a job.
func (jt *JobTracker) Submit(ctx context.Context, conf JobConf) (uint64, error) {
	conf.fill()
	app, err := LookupApp(conf.App)
	if err != nil {
		return 0, err
	}
	var splits []Split
	if app.MakeSplits != nil {
		splits, err = app.MakeSplits(ctx, jt.fsys, &conf)
	} else {
		splits, err = TextSplits(ctx, jt.fsys, conf.InputPaths, conf.InputVersion)
	}
	if err != nil {
		return 0, fmt.Errorf("mapred: computing splits: %w", err)
	}
	if len(splits) == 0 {
		return 0, errors.New("mapred: job has no input splits")
	}
	if conf.OutputDir != "" {
		if err := jt.fsys.Mkdirs(ctx, conf.OutputDir); err != nil {
			return 0, err
		}
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.nextJob++
	j := &job{
		id:             jt.nextJob,
		conf:           conf,
		splits:         splits,
		maps:           make([]taskState, len(splits)),
		reds:           make([]taskState, conf.NumReduces),
		mapOutputAddrs: make([]string, len(splits)),
	}
	jt.forgetLocked()
	jt.jobs[j.id] = j
	jt.running = append(jt.running, j)
	return j.id, nil
}

// RequestTasks assigns up to mapSlots map tasks and reduceSlots reduce
// tasks to the tracker at addr/host, preferring node-local splits —
// the affinity scheduling of Section IV-C. It also returns the IDs of
// ended jobs whose map outputs that tracker holds, once each, so it can
// drop their shuffle state. Running jobs are served in submission
// order.
func (jt *JobTracker) RequestTasks(addr, host string, mapSlots, reduceSlots int) ([]Assignment, []uint64) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.forgetLocked()
	var out []Assignment
	for _, j := range jt.running {
		// Map tasks: node-local first, then any pending (remote maps).
		for pass := 0; pass < 2 && mapSlots > 0; pass++ {
			for i := range j.maps {
				if mapSlots == 0 {
					break
				}
				if j.maps[i].phase != taskPending {
					continue
				}
				local := host != "" && slices.Contains(j.splits[i].Hosts, host)
				if pass == 0 && !local {
					continue
				}
				j.maps[i].phase = taskRunning
				if local {
					j.localMaps++
				} else {
					j.remoteMaps++
				}
				out = append(out, Assignment{
					JobID: j.id, Type: taskMap, TaskID: i, Conf: j.conf, Split: j.splits[i],
				})
				mapSlots--
			}
		}
		// Reduce tasks start once every map has finished (the paper's
		// applications have no early shuffle).
		if j.mapsDone == len(j.maps) {
			for i := range j.reds {
				if reduceSlots == 0 {
					break
				}
				if j.reds[i].phase != taskPending {
					continue
				}
				j.reds[i].phase = taskRunning
				out = append(out, Assignment{
					JobID: j.id, Type: taskReduce, TaskID: i, Conf: j.conf,
					NumMaps: len(j.maps), MapAddrs: append([]string(nil), j.mapOutputAddrs...),
				})
				reduceSlots--
			}
		}
	}
	gc := jt.done[addr]
	delete(jt.done, addr)
	return out, gc
}

// Report records a task attempt's outcome. Failed tasks are retried up
// to MaxAttempts; beyond that the job fails.
func (jt *JobTracker) Report(jobID uint64, taskType uint8, taskID int, addr string, success bool, errMsg string) error {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.forgetLocked()
	j, ok := jt.jobs[jobID]
	if !ok {
		if success && taskType == taskMap && jobID != 0 && jobID <= jt.nextJob {
			// A map that outlived its forgotten job: its tracker drops
			// the output on its next poll.
			jt.done[addr] = append(jt.done[addr], jobID)
		}
		return fmt.Errorf("mapred: unknown job %d", jobID)
	}
	var ts *taskState
	switch {
	case taskType == taskMap && taskID >= 0 && taskID < len(j.maps):
		ts = &j.maps[taskID]
	case taskType == taskReduce && taskID >= 0 && taskID < len(j.reds):
		ts = &j.reds[taskID]
	default:
		return fmt.Errorf("mapred: bad task %d/%d", taskType, taskID)
	}
	if ts.phase == taskDone {
		return nil // duplicate report
	}
	if success {
		ts.phase = taskDone
		if taskType == taskMap {
			j.mapsDone++
			j.mapOutputAddrs[taskID] = addr
			if j.state != JobRunning { // a map that outlived its failed job
				jt.done[addr] = append(jt.done[addr], j.id)
			}
		} else {
			j.redsDone++
		}
		if j.mapsDone == len(j.maps) && j.redsDone == len(j.reds) {
			jt.endLocked(j, JobSucceeded)
		}
		return nil
	}
	ts.attempts++
	if ts.attempts >= j.conf.MaxAttempts {
		j.errMsg = fmt.Sprintf("task %d failed %d times: %s", taskID, ts.attempts, errMsg)
		jt.endLocked(j, JobFailed)
		return nil
	}
	ts.phase = taskPending // retry
	return nil
}

// endLocked ends j and queues its ID for every tracker holding one of
// its map outputs, so each drops them on its next poll. The job leaves
// the polls' walk now, and the jobtracker jobRetention later.
func (jt *JobTracker) endLocked(j *job, state JobState) {
	if j.state != JobRunning {
		return // ended already: a straggler's report does not end it again
	}
	j.state = state
	jt.running = slices.DeleteFunc(jt.running, func(r *job) bool { return r == j })
	jt.ended = append(jt.ended, endedJob{j.id, time.Now()})
	for i, addr := range j.mapOutputAddrs {
		if addr != "" && !slices.Contains(j.mapOutputAddrs[:i], addr) {
			jt.done[addr] = append(jt.done[addr], j.id)
		}
	}
}

// Status snapshots a job.
func (jt *JobTracker) Status(jobID uint64) (JobStatus, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.forgetLocked()
	j, ok := jt.jobs[jobID]
	if !ok {
		return JobStatus{}, fmt.Errorf("mapred: unknown job %d", jobID)
	}
	return JobStatus{
		State:       j.state,
		MapsTotal:   len(j.maps),
		MapsDone:    j.mapsDone,
		ReducesDone: j.redsDone,
		LocalMaps:   j.localMaps,
		RemoteMaps:  j.remoteMaps,
		Err:         j.errMsg,
	}, nil
}

// ----- RPC plumbing -----

// JobTracker RPC method numbers.
const (
	mSubmitJob uint16 = iota + 1
	mRequestTasks
	mReportTask
	mJobStatus
)

func encodeConf(b *wire.Buffer, c JobConf) {
	b.String(c.Name)
	b.String(c.App)
	b.U32(uint32(len(c.Args)))
	for k, v := range c.Args {
		b.String(k)
		b.String(v)
	}
	b.StringSlice(c.InputPaths)
	b.String(c.OutputDir)
	b.U32(uint32(c.NumReduces))
	b.Bool(c.SharedOutput)
	b.U32(uint32(c.MaxAttempts))
	b.U64(c.InputVersion)
}

func decodeConf(r *wire.Reader) JobConf {
	c := JobConf{Name: r.String(), App: r.String()}
	n := r.U32()
	if n > 0 && r.Err() == nil {
		c.Args = make(map[string]string, n)
		for i := uint32(0); i < n; i++ {
			k := r.String()
			c.Args[k] = r.String()
		}
	}
	c.InputPaths = r.StringSlice()
	c.OutputDir = r.String()
	c.NumReduces = int(r.U32())
	c.SharedOutput = r.Bool()
	c.MaxAttempts = int(r.U32())
	c.InputVersion = r.U64()
	return c
}

func encodeSplit(b *wire.Buffer, s Split) {
	b.String(s.Path)
	b.I64(s.Off)
	b.I64(s.Len)
	b.StringSlice(s.Hosts)
	b.Bool(s.Synthetic)
	b.U32(uint32(s.SynthSeq))
	b.I64(s.SynthSize)
}

func decodeSplit(r *wire.Reader) Split {
	return Split{
		Path:      r.String(),
		Off:       r.I64(),
		Len:       r.I64(),
		Hosts:     r.StringSlice(),
		Synthetic: r.Bool(),
		SynthSeq:  int(r.U32()),
		SynthSize: r.I64(),
	}
}

// JTService is the jobtracker RPC shell.
type JTService struct {
	jt  *JobTracker
	reg *obs.Registry
}

// NewJTService wraps jt.
func NewJTService(jt *JobTracker) *JTService { return &JTService{jt: jt, reg: obs.NewRegistry()} }

// Metrics exposes the jobtracker's registry (per-method counts, errors
// and latency) for HTTP export.
func (s *JTService) Metrics() *obs.Registry { return s.reg }

// Mux returns the dispatch table, metered on the jobtracker's registry.
func (s *JTService) Mux() *rpc.Mux {
	m := rpc.NewMeteredMux("jobtracker", s.reg)
	m.HandleFrame(mSubmitJob, "submit_job", s.handleSubmit)
	m.HandleFrame(mRequestTasks, "request_tasks", s.handleRequestTasks)
	m.HandleFrame(mReportTask, "report_task", s.handleReport)
	m.HandleFrame(mJobStatus, "job_status", s.handleStatus)
	return m
}

func (s *JTService) handleSubmit(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	conf := decodeConf(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	id, err := s.jt.Submit(ctx, conf)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(8)
	b.U64(id)
	return b, nil
}

func (s *JTService) handleRequestTasks(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	addr := r.String()
	host := r.String()
	mapSlots := int(r.U32())
	reduceSlots := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	asgs, gc := s.jt.RequestTasks(addr, host, mapSlots, reduceSlots)
	b := rpc.NewFrame(128)
	b.U32(uint32(len(asgs)))
	for _, a := range asgs {
		b.U64(a.JobID)
		b.U8(a.Type)
		b.U32(uint32(a.TaskID))
		encodeConf(b, a.Conf)
		encodeSplit(b, a.Split)
		b.U32(uint32(a.NumMaps))
		b.StringSlice(a.MapAddrs)
	}
	b.U32(uint32(len(gc)))
	for _, id := range gc {
		b.U64(id)
	}
	return b, nil
}

func (s *JTService) handleReport(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	jobID := r.U64()
	taskType := r.U8()
	taskID := int(r.U32())
	addr := r.String()
	success := r.Bool()
	errMsg := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, s.jt.Report(jobID, taskType, taskID, addr, success, errMsg)
}

func (s *JTService) handleStatus(ctx context.Context, p []byte) (*wire.Buffer, error) {
	r := wire.NewReader(p)
	jobID := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	st, err := s.jt.Status(jobID)
	if err != nil {
		return nil, err
	}
	b := rpc.NewFrame(64)
	b.U8(uint8(st.State))
	b.U32(uint32(st.MapsTotal))
	b.U32(uint32(st.MapsDone))
	b.U32(uint32(st.ReducesDone))
	b.U32(uint32(st.LocalMaps))
	b.U32(uint32(st.RemoteMaps))
	b.String(st.Err)
	return b, nil
}

// JTClient is the jobtracker RPC client (used by tasktrackers and by
// the job-submission helper).
type JTClient struct {
	pool *rpc.Pool
	addr string
}

// NewJTClient returns a client for the jobtracker at addr.
func NewJTClient(pool *rpc.Pool, addr string) *JTClient {
	return &JTClient{pool: pool, addr: addr}
}

// call issues one RPC (see rpc.Pool.Call for enc and dec). One attempt:
// a retried Submit could submit a job twice.
func (c *JTClient) call(ctx context.Context, m uint16, size int, enc func(*wire.Buffer), dec func([]byte) error) error {
	return c.pool.Call(ctx, rpc.Backoff{}, c.addr, m, size, enc, dec)
}

// Submit sends a job.
func (c *JTClient) Submit(ctx context.Context, conf JobConf) (id uint64, err error) {
	err = c.call(ctx, mSubmitJob, 128, func(b *wire.Buffer) { encodeConf(b, conf) }, func(p []byte) error {
		r := wire.NewReader(p)
		id = r.U64()
		return r.Err()
	})
	return id, err
}

// RequestTasks polls for work.
func (c *JTClient) RequestTasks(ctx context.Context, addr, host string, mapSlots, reduceSlots int) (asgs []Assignment, gc []uint64, err error) {
	err = c.call(ctx, mRequestTasks, 64, func(b *wire.Buffer) {
		b.String(addr)
		b.String(host)
		b.U32(uint32(mapSlots))
		b.U32(uint32(reduceSlots))
	}, func(p []byte) error {
		r := wire.NewReader(p)
		n := r.U32()
		asgs = make([]Assignment, 0, n)
		for i := uint32(0); i < n; i++ {
			a := Assignment{JobID: r.U64(), Type: r.U8(), TaskID: int(r.U32())}
			if a.Type > taskReduce {
				return fmt.Errorf("mapred: unknown task type %d", a.Type)
			}
			a.Conf = decodeConf(r)
			a.Split = decodeSplit(r)
			a.NumMaps = int(r.U32())
			a.MapAddrs = r.StringSlice()
			asgs = append(asgs, a)
		}
		g := r.U32()
		gc = make([]uint64, 0, g)
		for i := uint32(0); i < g; i++ {
			gc = append(gc, r.U64())
		}
		return r.Err()
	})
	return asgs, gc, err
}

// Report sends a task outcome.
func (c *JTClient) Report(ctx context.Context, jobID uint64, taskType uint8, taskID int, addr string, success bool, errMsg string) error {
	return c.call(ctx, mReportTask, 64, func(b *wire.Buffer) {
		b.U64(jobID)
		b.U8(taskType)
		b.U32(uint32(taskID))
		b.String(addr)
		b.Bool(success)
		b.String(errMsg)
	}, nil)
}

// Status polls a job.
func (c *JTClient) Status(ctx context.Context, jobID uint64) (st JobStatus, err error) {
	err = c.call(ctx, mJobStatus, 8, func(b *wire.Buffer) { b.U64(jobID) }, func(p []byte) error {
		r := wire.NewReader(p)
		st = JobStatus{
			State:       JobState(r.U8()),
			MapsTotal:   int(r.U32()),
			MapsDone:    int(r.U32()),
			ReducesDone: int(r.U32()),
			LocalMaps:   int(r.U32()),
			RemoteMaps:  int(r.U32()),
			Err:         r.String(),
		}
		return r.Err()
	})
	return st, err
}

// Wait polls a job until it leaves JobRunning, returning its final
// status. A zero poll interval defaults to 5ms.
func (c *JTClient) Wait(ctx context.Context, jobID uint64, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, jobID)
		if err != nil {
			return st, err
		}
		if st.State != JobRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
