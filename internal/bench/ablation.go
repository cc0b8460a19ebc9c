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
