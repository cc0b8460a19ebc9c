package bench

import (
	"fmt"

	"blobseer/internal/blob"
	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/simstore"
	"blobseer/internal/util"
)

// Ablation experiments: each isolates one design choice the paper
// calls out and re-runs a microbenchmark with that choice varied. They
// answer "how much of the headline result does this mechanism buy?".

// AblationPlacement re-runs the Figure 4 concurrent-read workload with
// BlobSeer's placement strategy swapped out (Sections V-D/V-E credit
// the round-robin balance for the sustained read throughput).
func AblationPlacement(clients int) []Series {
	strategies := []struct {
		name string
		s    func() placement.Strategy
	}{
		{"roundrobin", func() placement.Strategy { return placement.NewRoundRobin() }},
		{"random", func() placement.Strategy { return placement.NewRandom(7) }},
		{"sticky(8)", func() placement.Strategy { return placement.NewRandomSticky(8, 7) }},
		{"leastloaded", func() placement.Strategy { return placement.NewLeastLoaded() }},
	}
	tun := simstore.DefaultTuning()
	out := make([]Series, 0, len(strategies))
	for _, st := range strategies {
		env := sim.NewEnv()
		net := simnet.New(env, simnet.Grid5000(fabricNodes))
		vm, metas, provs := bsfsTopology()
		b := simstore.NewBSFS(net, tun, st.s(), vm, metas, provs)
		m := b.CreateBlob(BlockSize, 1)
		size := int64(clients) * BlockSize
		b.Env.Go(func(p *sim.Proc) {
			for off := int64(0); off < size; off += BlockSize {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, BlockSize, uint64(off)+1); err != nil {
					panic(err)
				}
			}
		})
		b.Env.Run()
		s := Series{Name: st.name, XLabel: "clients", YLabel: "MB/s per client"}
		s.Points = append(s.Points, Point{X: float64(clients), Y: readChunksBSFS(b, m.ID, provs, clients)})
		out = append(out, s)
	}
	return out
}

// AblationMetadataProviders re-runs the Figure 4 workload with the
// metadata DHT shrunk to 1, 5 and 20 providers: the decentralized
// metadata claim of Section III-A3 (ref [13]).
func AblationMetadataProviders(clients int, metaCounts []int) []Series {
	tun := simstore.DefaultTuning()
	out := make([]Series, 0, len(metaCounts))
	for _, mc := range metaCounts {
		env := sim.NewEnv()
		net := simnet.New(env, simnet.Grid5000(fabricNodes))
		var metas, provs []simnet.NodeID
		for i := 1; i <= mc; i++ {
			metas = append(metas, simnet.NodeID(i))
		}
		for i := mc + 1; i < totalNodes; i++ {
			provs = append(provs, simnet.NodeID(i))
		}
		b := simstore.NewBSFS(net, tun, placement.NewRoundRobin(), 0, metas, provs)
		m := b.CreateBlob(BlockSize, 1)
		size := int64(clients) * BlockSize
		b.Env.Go(func(p *sim.Proc) {
			for off := int64(0); off < size; off += BlockSize {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, BlockSize, uint64(off)+1); err != nil {
					panic(err)
				}
			}
		})
		b.Env.Run()
		s := Series{Name: fmt.Sprintf("meta=%d", mc), XLabel: "clients", YLabel: "MB/s per client"}
		s.Points = append(s.Points, Point{X: float64(clients), Y: readChunksBSFS(b, m.ID, provs, clients)})
		out = append(out, s)
	}
	return out
}

// AblationVMService re-runs the Figure 5 concurrent-append workload
// with the version manager's per-operation service time varied: version
// assignment is the only serialization point of the write protocol
// (Section III-A4), so this measures how slow it may get before it
// gates the aggregate throughput.
func AblationVMService(clients int, serviceMS []float64) []Series {
	out := make([]Series, 0, len(serviceMS))
	for _, ms := range serviceMS {
		tun := simstore.DefaultTuning()
		tun.VMService = sim.Time(ms * float64(sim.Millisecond))
		env := sim.NewEnv()
		net := simnet.New(env, simnet.Grid5000(fabricNodes))
		vm, metas, provs := bsfsTopology()
		b := simstore.NewBSFS(net, tun, placement.NewRoundRobin(), vm, metas, provs)
		m := b.CreateBlob(BlockSize, 1)
		var last sim.Time
		for i := 0; i < clients; i++ {
			i := i
			client := provs[(i+len(provs)/2)%len(provs)]
			b.Env.Go(func(p *sim.Proc) {
				if _, err := b.Write(p, client, m.ID, blob.KindAppend, 0, BlockSize, uint64(i)+1); err != nil {
					panic(err)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		b.Env.Run()
		s := Series{Name: fmt.Sprintf("vm=%.1fms", ms), XLabel: "clients", YLabel: "aggregated MB/s"}
		s.Points = append(s.Points, Point{X: float64(clients), Y: mbps(int64(clients)*BlockSize, last)})
		out = append(out, s)
	}
	return out
}

// AblationBlockSize re-runs the Figure 3a single-writer workload with
// the striping unit varied (the GPFS discussion of Section II-B: 16 MB
// blocks vs Hadoop's 64 MB chunks).
func AblationBlockSize(fileGB float64, blockMBs []int) []Series {
	tun := simstore.DefaultTuning()
	out := make([]Series, 0, len(blockMBs))
	for _, bm := range blockMBs {
		bs := int64(bm) * util.MB
		size := int64(fileGB*float64(util.GB)) / bs * bs
		b := newBSFS(tun)
		m := b.CreateBlob(bs, 1)
		var end sim.Time
		b.Env.Go(func(p *sim.Proc) {
			for off := int64(0); off < size; off += bs {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, bs, uint64(off)+1); err != nil {
					panic(err)
				}
				end = p.Now()
			}
		})
		b.Env.Run()
		s := Series{Name: fmt.Sprintf("block=%dMB", bm), XLabel: "file size (GB)", YLabel: "MB/s"}
		s.Points = append(s.Points, Point{X: fileGB, Y: mbps(size, end)})
		out = append(out, s)
	}
	return out
}

// AblationStreaming quantifies the BSFS client's streaming pipeline
// (Section IV-B) on the paper topology: one dedicated client streams an
// nBlocks x 64 MB file through the write-behind and readahead windows
// with the depth varied. Depth 0 is the fully synchronous client
// (DisableCache): exactly one block in flight, every block boundary a
// stall on the version manager and metadata round-trips; deeper windows
// overlap those latencies — and fill the client link past the
// single-stream protocol efficiency — across consecutive blocks.
func AblationStreaming(nBlocks int, depths []int) []Series {
	tun := simstore.DefaultTuning()
	write := Series{Name: "stream-write", XLabel: "window (blocks)", YLabel: "MB/s"}
	read := Series{Name: "stream-read", XLabel: "window (blocks)", YLabel: "MB/s"}
	for _, d := range depths {
		b := newBSFS(tun)
		m := b.CreateBlob(BlockSize, 1)
		var wEnd sim.Time
		b.Env.Go(func(p *sim.Proc) {
			if err := b.StreamWrite(p, clientNode, m.ID, nBlocks, d, 0); err != nil {
				panic(err)
			}
			wEnd = p.Now()
		})
		b.Env.Run()
		write.Points = append(write.Points, Point{X: float64(d), Y: mbps(int64(nBlocks)*BlockSize, wEnd)})

		rStart := b.Env.Now()
		var rEnd sim.Time
		b.Env.Go(func(p *sim.Proc) {
			if err := b.StreamRead(p, clientNode, m.ID, nBlocks, d); err != nil {
				panic(err)
			}
			rEnd = p.Now()
		})
		b.Env.Run()
		read.Points = append(read.Points, Point{X: float64(d), Y: mbps(int64(nBlocks)*BlockSize, rEnd-rStart)})
	}
	return []Series{write, read}
}

// AblationRepair measures availability under provider failure and what
// the repair plane buys back (the self-healing claim: replication-based
// fault tolerance only sustains throughput if redundancy is *restored*
// under churn, not merely tolerated). An nBlocks x 64 MB file is
// written at R=3 over a compact provider pool; concurrent chunk readers
// measure per-client throughput healthy, after one provider is killed
// (reads shift onto the survivors' disks and uplinks — the dip), and
// after a repair pass has re-replicated the lost blocks. The recovery
// series reports the pass itself: replicas re-created and the time the
// provider-to-provider copies took.
func AblationRepair(nBlocks, providers int) []Series {
	tun := simstore.DefaultTuning()
	const repl = 3
	build := func() (*simstore.BSFS, blob.Meta, []simnet.NodeID) {
		env := sim.NewEnv()
		fabric := providers + 6
		net := simnet.New(env, simnet.Grid5000(fabric))
		metas := []simnet.NodeID{1, 2, 3, 4}
		provs := make([]simnet.NodeID, providers)
		for i := range provs {
			provs[i] = simnet.NodeID(5 + i)
		}
		writer := simnet.NodeID(fabric - 1)
		b := simstore.NewBSFS(net, tun, placement.NewRoundRobin(), 0, metas, provs)
		m := b.CreateBlob(BlockSize, repl)
		b.Env.Go(func(p *sim.Proc) {
			for i := 0; i < nBlocks; i++ {
				if _, err := b.Write(p, writer, m.ID, blob.KindAppend, 0, BlockSize, uint64(i)+1); err != nil {
					panic(err)
				}
			}
		})
		b.Env.Run()
		return b, m, provs
	}

	noRepair := Series{Name: "no-repair", XLabel: "phase (0=healthy 1=one dead 2=three dead)", YLabel: "MB/s per client"}
	selfHeal := Series{Name: "self-heal", XLabel: "phase (0=healthy 1=one dead 2=three dead)", YLabel: "MB/s per client"}
	lostNR := Series{Name: "lost-blocks-no-repair", XLabel: "phase", YLabel: "unreadable blocks"}
	lostSH := Series{Name: "lost-blocks-self-heal", XLabel: "phase", YLabel: "unreadable blocks"}
	recovery := Series{Name: "recovery", XLabel: "replicas re-created", YLabel: "seconds"}

	run := func(heal bool) (Series, Series) {
		tp := Series{Points: make([]Point, 0, 3)}
		lost := Series{Points: make([]Point, 0, 3)}
		b, m, provs := build()
		y, f := readChunksTolerant(b, m.ID, provs, nBlocks)
		tp.Points = append(tp.Points, Point{X: 0, Y: y})
		lost.Points = append(lost.Points, Point{X: 0, Y: float64(f)})

		// First failure: every block keeps >= 2 live replicas; reads
		// dip (survivors' disks and uplinks absorb the shifted load)
		// but nothing is lost, with or without repair.
		b.KillProvider(simstore.ProviderAddr(provs[0]))
		y, f = readChunksTolerant(b, m.ID, provs, nBlocks)
		tp.Points = append(tp.Points, Point{X: 1, Y: y})
		lost.Points = append(lost.Points, Point{X: 1, Y: float64(f)})

		if heal {
			start := b.Env.Now()
			var copies int
			b.Env.Go(func(p *sim.Proc) {
				n, err := b.Repair(p, 8)
				if err != nil {
					panic(err)
				}
				copies = n
			})
			b.Env.Run()
			recovery.Points = append(recovery.Points, Point{X: float64(copies), Y: (b.Env.Now() - start).Seconds()})
		}

		// Further failures: round-robin placed replica sets {i, i+1,
		// i+2}, so with three consecutive providers dead the blocks
		// placed exactly there lose every original replica. Without
		// repair those blocks are gone; with the post-first-failure
		// repair pass, their relocated copies (found through the
		// location overlay) keep every block readable.
		b.KillProvider(simstore.ProviderAddr(provs[1]))
		b.KillProvider(simstore.ProviderAddr(provs[2]))
		y, f = readChunksTolerant(b, m.ID, provs, nBlocks)
		tp.Points = append(tp.Points, Point{X: 2, Y: y})
		lost.Points = append(lost.Points, Point{X: 2, Y: float64(f)})
		return tp, lost
	}

	tp, lost := run(false)
	noRepair.Points, lostNR.Points = tp.Points, lost.Points
	tp, lost = run(true)
	selfHeal.Points, lostSH.Points = tp.Points, lost.Points
	return []Series{noRepair, selfHeal, lostNR, lostSH, recovery}
}

// readChunksTolerant is readChunksBSFS for degraded deployments: chunk
// reads that fail (every replica of some block dead) are counted
// instead of panicking, and the mean throughput covers the successful
// readers only.
func readChunksTolerant(b *simstore.BSFS, id blob.ID, nodes []simnet.NodeID, n int) (float64, int) {
	var secs []float64
	failed := 0
	for i := 0; i < n; i++ {
		i := i
		client := nodes[(i+len(nodes)/2)%len(nodes)]
		b.Env.Go(func(p *sim.Proc) {
			start := p.Now()
			if _, err := b.Read(p, client, id, int64(i)*BlockSize, BlockSize); err != nil {
				failed++
				return
			}
			secs = append(secs, (p.Now() - start).Seconds())
		})
	}
	b.Env.Run()
	return meanChunkMBps(secs), failed
}

// AblationReplication re-runs the single-writer workload with the data
// replication level varied (the fault-tolerance mechanism of Section
// VI-B: each block is written to `r` providers). Chain replication
// ships each block once and pushes the extra copies
// provider-to-provider, so the client link stays the only bottleneck
// and throughput barely moves with r.
func AblationReplication(fileGB float64, replications []int) []Series {
	tun := simstore.DefaultTuning()
	out := make([]Series, 0, len(replications))
	for _, r := range replications {
		size := int64(fileGB*float64(util.GB)) / BlockSize * BlockSize
		b := newBSFS(tun)
		m := b.CreateBlob(BlockSize, r)
		var end sim.Time
		b.Env.Go(func(p *sim.Proc) {
			for off := int64(0); off < size; off += BlockSize {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, BlockSize, uint64(off)+1); err != nil {
					panic(err)
				}
				end = p.Now()
			}
		})
		b.Env.Run()
		s := Series{Name: fmt.Sprintf("repl=%d", r), XLabel: "file size (GB)", YLabel: "MB/s"}
		s.Points = append(s.Points, Point{X: fileGB, Y: mbps(size, end)})
		out = append(out, s)
	}
	return out
}
