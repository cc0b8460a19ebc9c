// Package simnet is a flow-level network model over the sim kernel:
// the stand-in for Grid'5000's 1 Gbit/s cluster fabric (Section V-A:
// measured 117.5 MB/s per TCP stream, 0.1 ms latency). Transfers are
// fluid flows; active flows share each node's uplink and downlink
// capacity max-min fairly, with optional per-flow rate caps modeling
// single-stream protocol efficiency. Bandwidth contention — the
// quantity every figure of the paper ultimately measures — emerges from
// this model plus the real placement logic.
package simnet

import (
	"fmt"
	"math"

	"blobseer/internal/sim"
)

// NodeID indexes a simulated machine.
type NodeID int

// Config describes the fabric.
type Config struct {
	Nodes   int
	UpBps   float64  // uplink capacity, bytes/sec
	DownBps float64  // downlink capacity, bytes/sec
	DiskBps float64  // per-node storage-medium capacity (0 = unmodeled)
	Latency sim.Time // one-way message latency
}

// Grid5000 returns the paper's testbed parameters: 117.5 MB/s measured
// TCP throughput per link, 0.1 ms intracluster latency, and a
// 2010-era sequential-disk medium behind every node. The disk capacity
// is what makes a handful of chunk-hoarding datanodes a bottleneck
// under concurrent reads (Figures 4 and 6b).
func Grid5000(nodes int) Config {
	const linkBps = 117.5 * 1e6
	return Config{
		Nodes:   nodes,
		UpBps:   linkBps,
		DownBps: linkBps,
		DiskBps: 85e6,
		Latency: 100 * sim.Microsecond,
	}
}

type flow struct {
	src, dst  NodeID
	disk      NodeID // node whose storage medium serves this flow (-1 = none)
	local     bool   // src == dst: no network legs, disk only
	remaining float64
	rate      float64
	cap       float64 // per-flow ceiling (0 = none)
	done      *sim.Event
}

// Net is the fabric.
type Net struct {
	env *sim.Env
	cfg Config
	// flows are kept in arrival order so that rate allocation and
	// completion callbacks run in the same order on every run.
	flows []*flow

	lastUpdate sim.Time
	gen        uint64 // invalidates stale completion callbacks

	// faults holds injected link degradations keyed by unordered node
	// pair; nil until the first injection (see faults.go).
	faults map[pairKey]*fault

	// Stats
	BytesMoved float64
	egress     []float64 // per-node bytes sent over the uplink
	ingress    []float64 // per-node bytes received over the downlink
}

// New builds a fabric in env.
func New(env *sim.Env, cfg Config) *Net {
	if cfg.Nodes <= 0 {
		panic("simnet: need at least one node")
	}
	return &Net{
		env: env, cfg: cfg,
		egress:  make([]float64, cfg.Nodes),
		ingress: make([]float64, cfg.Nodes),
	}
}

// EgressOf returns the bytes node id has sent over its uplink so far —
// the per-node accounting behind the data plane's billing claims
// (local disk-only flows do not count).
func (n *Net) EgressOf(id NodeID) float64 {
	n.checkNode(id)
	return n.egress[id]
}

// IngressOf returns the bytes node id has received over its downlink.
func (n *Net) IngressOf(id NodeID) float64 {
	n.checkNode(id)
	return n.ingress[id]
}

// Env returns the owning simulation.
func (n *Net) Env() *sim.Env { return n.env }

// Config returns the fabric parameters.
func (n *Net) Config() Config { return n.cfg }

// Transfer moves size bytes from src to dst, blocking p until the flow
// completes. rateCap (bytes/sec) bounds this flow's rate; 0 means
// link-limited only. A latency charge precedes the flow. Local
// transfers (src == dst) cost nothing; use TransferDisk to bill the
// storage medium.
func (n *Net) Transfer(p *sim.Proc, src, dst NodeID, size int64, rateCap float64) {
	n.transfer(p, src, dst, size, rateCap, -1)
}

// TransferDisk is Transfer with the storage medium of node disk in the
// flow's path: the flow additionally shares that node's DiskBps with
// every other flow served by the same medium. Reads bill the serving
// node, writes the receiving node. src == dst is allowed and models a
// purely local, disk-bound access.
func (n *Net) TransferDisk(p *sim.Proc, src, dst NodeID, size int64, rateCap float64, disk NodeID) {
	n.checkNode(disk)
	n.transfer(p, src, dst, size, rateCap, disk)
}

func (n *Net) transfer(p *sim.Proc, src, dst NodeID, size int64, rateCap float64, disk NodeID) {
	local := src == dst
	if local && (disk < 0 || n.cfg.DiskBps <= 0) {
		// Local access with no disk model: free (page-cache speed).
		return
	}
	n.checkNode(src)
	n.checkNode(dst)
	if size <= 0 {
		if !local {
			n.awaitHealed(p, src, dst)
			p.Sleep(n.latencyBetween(src, dst))
		}
		return
	}
	if !local {
		n.awaitHealed(p, src, dst)
		p.Sleep(n.latencyBetween(src, dst))
	}
	if n.cfg.DiskBps <= 0 {
		disk = -1
	}
	f := &flow{src: src, dst: dst, disk: disk, local: local,
		remaining: float64(size), cap: rateCap, done: n.env.NewEvent()}
	n.advance()
	n.flows = append(n.flows, f)
	n.recalc()
	f.done.Wait(p)
}

// Message charges one request/response latency pair plus the (tiny)
// payload serialization — the cost model for control RPCs (version
// manager, metadata provider, namenode ops).
func (n *Net) Message(p *sim.Proc, src, dst NodeID, bytes int64) {
	if src == dst {
		return
	}
	n.checkNode(src)
	n.checkNode(dst)
	n.awaitHealed(p, src, dst)
	d := 2 * n.latencyBetween(src, dst)
	if bytes > 0 && n.cfg.UpBps > 0 {
		d += sim.DurationFromSeconds(float64(bytes) / n.cfg.UpBps)
	}
	if f := n.faultOf(src, dst); f != nil && f.dropEvery > 0 {
		f.msgCount++
		if f.msgCount%f.dropEvery == 0 {
			d += f.dropPenalty
		}
	}
	p.Sleep(d)
}

func (n *Net) checkNode(id NodeID) {
	if id < 0 || int(id) >= n.cfg.Nodes {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", id, n.cfg.Nodes))
	}
}

// advance applies progress at current rates since the last update.
func (n *Net) advance() {
	dt := (n.env.Now() - n.lastUpdate).Seconds()
	n.lastUpdate = n.env.Now()
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		n.BytesMoved += moved
		if !f.local {
			n.egress[f.src] += moved
			n.ingress[f.dst] += moved
		}
	}
}

// recalc runs progressive filling (max-min fairness with per-flow
// caps), then schedules the next completion callback.
func (n *Net) recalc() {
	type link struct {
		capacity float64
		nFlows   int
	}
	up := make([]link, n.cfg.Nodes)
	down := make([]link, n.cfg.Nodes)
	disk := make([]link, n.cfg.Nodes)
	for i := range up {
		up[i].capacity = n.cfg.UpBps
		down[i].capacity = n.cfg.DownBps
		disk[i].capacity = n.cfg.DiskBps
	}
	unfrozen := make([]*flow, 0, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
		if n.stalled(f) {
			// Partitioned: zero rate, and no claim on any link share —
			// bystander flows get the freed capacity.
			continue
		}
		unfrozen = append(unfrozen, f)
		if !f.local {
			up[f.src].nFlows++
			down[f.dst].nFlows++
		}
		if f.disk >= 0 {
			disk[f.disk].nFlows++
		}
	}
	for len(unfrozen) > 0 {
		// The binding constraint this round: the smallest of all link
		// fair shares and all per-flow caps.
		bind := math.Inf(1)
		for i := range up {
			if up[i].nFlows > 0 {
				bind = math.Min(bind, up[i].capacity/float64(up[i].nFlows))
			}
			if down[i].nFlows > 0 {
				bind = math.Min(bind, down[i].capacity/float64(down[i].nFlows))
			}
			if disk[i].nFlows > 0 {
				bind = math.Min(bind, disk[i].capacity/float64(disk[i].nFlows))
			}
		}
		for _, f := range unfrozen {
			if f.cap > 0 {
				bind = math.Min(bind, f.cap)
			}
		}
		if math.IsInf(bind, 1) || bind < 0 {
			break
		}
		// Freeze every flow touching a binding constraint at `bind`.
		still := unfrozen[:0]
		for _, f := range unfrozen {
			binding := false
			if !f.local {
				if up[f.src].capacity/float64(up[f.src].nFlows) <= bind+1e-9 {
					binding = true
				}
				if down[f.dst].capacity/float64(down[f.dst].nFlows) <= bind+1e-9 {
					binding = true
				}
			}
			if f.disk >= 0 && disk[f.disk].capacity/float64(disk[f.disk].nFlows) <= bind+1e-9 {
				binding = true
			}
			if f.cap > 0 && f.cap <= bind+1e-9 {
				binding = true
			}
			if !binding {
				still = append(still, f)
				continue
			}
			f.rate = bind
			if !f.local {
				up[f.src].capacity -= bind
				up[f.src].nFlows--
				down[f.dst].capacity -= bind
				down[f.dst].nFlows--
			}
			if f.disk >= 0 {
				disk[f.disk].capacity -= bind
				disk[f.disk].nFlows--
			}
		}
		if len(still) == len(unfrozen) {
			// Numerical corner: freeze everything at the bound.
			for _, f := range still {
				f.rate = bind
			}
			still = still[:0]
		}
		unfrozen = still
	}
	n.scheduleNextCompletion()
}

// scheduleNextCompletion arms a callback at the earliest flow finish.
func (n *Net) scheduleNextCompletion() {
	n.gen++
	gen := n.gen
	next := sim.Time(math.MaxInt64)
	found := false
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		// Round the ETA up: truncating would leave a sub-nanosecond
		// residue whose next callback fires after zero virtual time,
		// making no progress and re-arming itself forever.
		d := sim.Time(math.Ceil(f.remaining / f.rate * float64(sim.Second)))
		if d < 1 {
			d = 1
		}
		eta := n.env.Now() + d
		if eta < next {
			next = eta
			found = true
		}
	}
	if !found {
		return
	}
	delay := next - n.env.Now()
	if delay < 0 {
		delay = 0
	}
	n.env.Call(delay, func() {
		if gen != n.gen {
			return // a newer recalc superseded this callback
		}
		n.advance()
		const eps = 1e-6
		live := n.flows[:0]
		for _, f := range n.flows {
			if f.remaining <= eps {
				f.done.Fire()
			} else {
				live = append(live, f)
			}
		}
		clear(n.flows[len(live):])
		n.flows = live
		n.recalc()
	})
}

// ActiveFlows returns the number of in-flight transfers (tests).
func (n *Net) ActiveFlows() int { return len(n.flows) }
