// Package sim is a deterministic discrete-event simulation kernel: the
// substrate that replaces the paper's 270-machine Grid'5000 testbed.
// Processes are goroutines scheduled cooperatively — exactly one runs
// at a time, handed control by the scheduler in virtual-time order — so
// simulations are data-race-free and fully reproducible without locks
// in model code.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in nanoseconds.
type Time int64

// Time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds renders a virtual duration in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// DurationFromSeconds converts seconds to virtual time.
func DurationFromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Env is one simulation universe.
type Env struct {
	now    Time
	queue  eventHeap
	seq    uint64
	parked chan struct{} // a proc signals here when it yields or exits
	nProcs int           // live processes (leak diagnostics)
}

// NewEnv returns an empty simulation at time zero.
func NewEnv() *Env {
	return &Env{parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Procs returns the number of live processes (blocked or runnable).
func (e *Env) Procs() int { return e.nProcs }

type event struct {
	at   Time
	seq  uint64
	proc *Proc  // wake this process...
	fn   func() // ...or run this scheduler-context callback
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (e *Env) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%d < %d)", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, event{at: at, seq: e.seq, proc: p, fn: fn})
}

// Call schedules fn to run in scheduler context after delay. fn must
// not block or yield; it may schedule further events and fire Events.
// The network model uses this for flow-completion bookkeeping.
func (e *Env) Call(delay Time, fn func()) {
	e.schedule(e.now+delay, nil, fn)
}

// Proc is one simulated process.
type Proc struct {
	env    *Env
	resume chan struct{}
	id     int
}

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a process that starts at the current virtual time.
func (e *Env) Go(fn func(p *Proc)) *Proc {
	e.nProcs++
	p := &Proc{env: e, resume: make(chan struct{}), id: e.nProcs}
	go func() {
		<-p.resume // wait for the scheduler to start us
		fn(p)
		e.nProcs--
		e.parked <- struct{}{} // final yield: process exits
	}()
	e.schedule(e.now, p, nil)
	return p
}

// Run processes events until the queue is empty, returning the final
// virtual time. Processes still blocked on events that never fire are
// reported by Procs() (a model bug); their goroutines are abandoned.
func (e *Env) Run() Time {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(event)
		e.now = ev.at
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.proc != nil:
			ev.proc.resume <- struct{}{}
			<-e.parked // until the proc yields or exits
		}
	}
	return e.now
}

// RunUntil processes events up to and including time limit.
func (e *Env) RunUntil(limit Time) Time {
	for len(e.queue) > 0 && e.queue[0].at <= limit {
		ev := heap.Pop(&e.queue).(event)
		e.now = ev.at
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.proc != nil:
			ev.proc.resume <- struct{}{}
			<-e.parked
		}
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// yield parks the process and returns control to the scheduler.
func (p *Proc) yield() {
	p.env.parked <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p, nil)
	p.yield()
}

// Event is a one-shot signal processes can wait on.
type Event struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fire triggers the event, waking all waiters at the current instant.
// Safe to call from process or scheduler-callback context; firing
// twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, p := range ev.waiters {
		ev.env.schedule(ev.env.now, p, nil)
	}
	ev.waiters = nil
}

// Wait blocks the process until the event fires (returns immediately
// if it already has).
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.yield()
}

// Resource is a FIFO server pool with fixed per-request service time —
// the model for serialized daemons like the version manager (version
// assignment is BlobSeer's only serialization point) and the HDFS
// namenode.
type Resource struct {
	env     *Env
	servers int
	busy    int
	queue   []*Proc
}

// NewResource creates a pool with the given number of servers.
func (e *Env) NewResource(servers int) *Resource {
	if servers < 1 {
		servers = 1
	}
	return &Resource{env: e, servers: servers}
}

// QueueLen returns the number of waiting processes (tests, metrics).
func (r *Resource) QueueLen() int { return len(r.queue) }

// Use occupies one server for the given service time, queueing FIFO
// when all servers are busy.
func (r *Resource) Use(p *Proc, service Time) {
	// Re-check after waking: a process arriving between our wake-up
	// being scheduled and running may have taken the freed server.
	for r.busy >= r.servers {
		r.queue = append(r.queue, p)
		p.yield()
	}
	r.busy++
	p.Sleep(service)
	r.busy--
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.env.schedule(r.env.now, next, nil)
	}
}
