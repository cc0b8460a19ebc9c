// Package bench regenerates every figure of the paper's evaluation
// (Section V) on the simulated Grid'5000 testbed. Each runner deploys a
// fresh simulated cluster with the paper's topology, drives the exact
// workload of the corresponding subsection, and returns the series the
// figure plots. cmd/figures prints them; bench_test.go wraps them as Go
// benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"blobseer/internal/blob"
	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simmr"
	"blobseer/internal/simnet"
	"blobseer/internal/simstore"
	"blobseer/internal/util"
)

// BlockSize is the paper's chunk size: 64 MB everywhere.
const BlockSize = 64 * util.MB

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// WriteJSON writes a report (a BENCH_*.json file) to path, indented for
// diffability.
func WriteJSON(path string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders series side by side for terminal output.
func Table(title string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	if len(series) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%18s", series[0].XLabel)
	for _, s := range series {
		fmt.Fprintf(&sb, "  %24s", s.Name+" ("+s.YLabel+")")
	}
	sb.WriteByte('\n')
	for i := range series[0].Points {
		fmt.Fprintf(&sb, "%18.2f", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&sb, "  %24.2f", s.Points[i].Y)
			} else {
				fmt.Fprintf(&sb, "  %24s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Topology constants mirroring Section V-C/V-D: 270 machines + 1
// dedicated client machine. BlobSeer: 1 version manager (co-hosting the
// provider manager and namespace manager), 20 metadata providers, 249
// data providers. HDFS: 1 namenode, 269 datanodes.
const (
	totalNodes  = 270
	metaCount   = 20
	clientNode  = simnet.NodeID(totalNodes) // dedicated writer machine
	fabricNodes = totalNodes + 1
)

func bsfsTopology() (vm simnet.NodeID, metas, provs []simnet.NodeID) {
	vm = 0
	for i := 1; i <= metaCount; i++ {
		metas = append(metas, simnet.NodeID(i))
	}
	for i := metaCount + 1; i < totalNodes; i++ {
		provs = append(provs, simnet.NodeID(i))
	}
	return
}

func hdfsTopology() (nn simnet.NodeID, dns []simnet.NodeID) {
	nn = 0
	for i := 1; i < totalNodes; i++ {
		dns = append(dns, simnet.NodeID(i))
	}
	return
}

func newBSFS(tun simstore.Tuning) *simstore.BSFS {
	env := sim.NewEnv()
	net := simnet.New(env, simnet.Grid5000(fabricNodes))
	vm, metas, provs := bsfsTopology()
	return simstore.NewBSFS(net, tun, placement.NewRoundRobin(), vm, metas, provs)
}

func newHDFS(tun simstore.Tuning, seed uint64) *simstore.HDFS {
	env := sim.NewEnv()
	net := simnet.New(env, simnet.Grid5000(fabricNodes))
	nn, dns := hdfsTopology()
	return simstore.NewHDFS(net, tun, placement.NewLocalFirst(placement.NewRandomSticky(8, seed)), nn, dns)
}

// Fig3a reproduces "single writer, single file": one dedicated client
// sequentially writes an N x 64 MB file; the y-axis is its sustained
// write throughput (MB/s) as the file size (GB) grows.
func Fig3a(fileGBs []float64) []Series {
	tun := simstore.DefaultTuning()
	hdfs := Series{Name: "HDFS", XLabel: "file size (GB)", YLabel: "MB/s"}
	bsfs := Series{Name: "BSFS", XLabel: "file size (GB)", YLabel: "MB/s"}
	for _, gb := range fileGBs {
		size := int64(gb * float64(util.GB))
		size = size / BlockSize * BlockSize
		if size == 0 {
			size = BlockSize
		}

		h := newHDFS(tun, uint64(size))
		var hEnd sim.Time
		h.Env.Go(func(p *sim.Proc) {
			if err := h.Write(p, clientNode, "/f", size, BlockSize); err != nil {
				panic(err)
			}
			hEnd = p.Now()
		})
		h.Env.Run()
		hdfs.Points = append(hdfs.Points, Point{X: gb, Y: mbps(size, hEnd)})

		b := newBSFS(tun)
		m := b.CreateBlob(BlockSize, 1)
		var bEnd sim.Time
		b.Env.Go(func(p *sim.Proc) {
			// The BSFS writer commits one block at a time
			// (write-behind cache), like the real client.
			for off := int64(0); off < size; off += BlockSize {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, BlockSize, uint64(off)+1); err != nil {
					panic(err)
				}
			}
			bEnd = p.Now()
		})
		b.Env.Run()
		bsfs.Points = append(bsfs.Points, Point{X: gb, Y: mbps(size, bEnd)})
	}
	return []Series{hdfs, bsfs}
}

// Fig3b reproduces the load-balance evaluation: the Manhattan distance
// between the produced data layout and a perfectly balanced one, for
// the same single-writer runs as Fig3a.
func Fig3b(fileGBs []float64) []Series {
	tun := simstore.DefaultTuning()
	hdfs := Series{Name: "HDFS", XLabel: "file size (GB)", YLabel: "unbalance"}
	bsfs := Series{Name: "BSFS", XLabel: "file size (GB)", YLabel: "unbalance"}
	for _, gb := range fileGBs {
		size := int64(gb*float64(util.GB)) / BlockSize * BlockSize
		if size == 0 {
			size = BlockSize
		}
		h := newHDFS(tun, uint64(size)+7)
		h.Env.Go(func(p *sim.Proc) {
			if err := h.Write(p, clientNode, "/f", size, BlockSize); err != nil {
				panic(err)
			}
		})
		h.Env.Run()
		hdfs.Points = append(hdfs.Points, Point{X: gb, Y: util.ManhattanDistance(h.Layout())})

		b := newBSFS(tun)
		m := b.CreateBlob(BlockSize, 1)
		b.Env.Go(func(p *sim.Proc) {
			for off := int64(0); off < size; off += BlockSize {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, BlockSize, uint64(off)+1); err != nil {
					panic(err)
				}
			}
		})
		b.Env.Run()
		bsfs.Points = append(bsfs.Points, Point{X: gb, Y: util.ManhattanDistance(b.Layout())})
	}
	return []Series{hdfs, bsfs}
}

// Fig4 reproduces "concurrent reads, shared file": a dedicated node
// writes N x 64 MB; then N clients (running on storage machines, as in
// the paper's measurement phase) each read a distinct 64 MB chunk. The
// y-axis is the average per-client throughput.
func Fig4(clients []int) []Series {
	tun := simstore.DefaultTuning()
	hdfs := Series{Name: "HDFS", XLabel: "clients", YLabel: "MB/s per client"}
	bsfs := Series{Name: "BSFS", XLabel: "clients", YLabel: "MB/s per client"}
	for _, n := range clients {
		size := int64(n) * BlockSize

		h := newHDFS(tun, uint64(n)*13+1)
		_, dns := hdfsTopology()
		h.Env.Go(func(p *sim.Proc) { // boot-up phase from the dedicated node
			if err := h.Write(p, clientNode, "/f", size, BlockSize); err != nil {
				panic(err)
			}
		})
		h.Env.Run()
		hdfs.Points = append(hdfs.Points, Point{X: float64(n), Y: readChunksHDFS(h, dns, n)})

		b := newBSFS(tun)
		m := b.CreateBlob(BlockSize, 1)
		b.Env.Go(func(p *sim.Proc) {
			for off := int64(0); off < size; off += BlockSize {
				if _, err := b.Write(p, clientNode, m.ID, blob.KindAppend, 0, BlockSize, uint64(off)+1); err != nil {
					panic(err)
				}
			}
		})
		b.Env.Run()
		_, _, provs := bsfsTopology()
		bsfs.Points = append(bsfs.Points, Point{X: float64(n), Y: readChunksBSFS(b, m.ID, provs, n)})
	}
	return []Series{hdfs, bsfs}
}

// readChunksHDFS runs the measurement phase of Fig4 on HDFS and returns
// the mean per-client throughput in MB/s. Client i runs on a storage
// machine offset by half the cluster so co-location is coincidental,
// like the paper's random client subset.
func readChunksHDFS(h *simstore.HDFS, nodes []simnet.NodeID, n int) float64 {
	var secs []float64
	for i := 0; i < n; i++ {
		i := i
		client := nodes[(i+len(nodes)/2)%len(nodes)]
		h.Env.Go(func(p *sim.Proc) {
			start := p.Now()
			if _, err := h.Read(p, client, "/f", int64(i)*BlockSize, BlockSize); err != nil {
				panic(err)
			}
			secs = append(secs, (p.Now() - start).Seconds())
		})
	}
	h.Env.Run()
	return meanChunkMBps(secs)
}

func readChunksBSFS(b *simstore.BSFS, id blob.ID, nodes []simnet.NodeID, n int) float64 {
	var secs []float64
	for i := 0; i < n; i++ {
		i := i
		client := nodes[(i+len(nodes)/2)%len(nodes)]
		b.Env.Go(func(p *sim.Proc) {
			start := p.Now()
			if _, err := b.Read(p, client, id, int64(i)*BlockSize, BlockSize); err != nil {
				panic(err)
			}
			secs = append(secs, (p.Now() - start).Seconds())
		})
	}
	b.Env.Run()
	return meanChunkMBps(secs)
}

func meanChunkMBps(secs []float64) float64 {
	if len(secs) == 0 {
		return 0
	}
	tp := make([]float64, len(secs))
	for i, s := range secs {
		tp[i] = float64(BlockSize) / float64(util.MB) / s
	}
	return util.Mean(tp)
}

// Fig5 reproduces "concurrent appends, shared file": N clients each
// append 64 MB to one BLOB; the y-axis is the aggregated throughput
// (MB/s). HDFS has no curve here — it does not implement append.
func Fig5(clients []int) []Series {
	tun := simstore.DefaultTuning()
	bsfs := Series{Name: "BSFS", XLabel: "clients", YLabel: "aggregated MB/s"}
	for _, n := range clients {
		b := newBSFS(tun)
		m := b.CreateBlob(BlockSize, 1)
		_, _, provs := bsfsTopology()
		var last sim.Time
		for i := 0; i < n; i++ {
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
		bsfs.Points = append(bsfs.Points, Point{X: float64(n), Y: mbps(int64(n)*BlockSize, last)})
	}
	return []Series{bsfs}
}

// Application-model constants for Figure 6 (see EXPERIMENTS.md).
const (
	rtwGenRate   = 66e6 // RandomTextWriter text generation, bytes/s
	grepScanRate = 24e6 // grep map task scan rate, bytes/s
)

// Fig6a reproduces RandomTextWriter: 6.4 GB of total output, the
// per-mapper share varying from 128 MB (50 mappers) to 6.4 GB (one
// mapper); 50 co-deployed tasktracker/storage machines.
func Fig6a(mappers []int) []Series {
	gbF := float64(util.GB)
	totalOut := int64(6.4 * gbF)
	tun := simstore.DefaultTuning()
	hdfs := Series{Name: "HDFS", XLabel: "GB per mapper", YLabel: "seconds"}
	bsfs := Series{Name: "BSFS", XLabel: "GB per mapper", YLabel: "seconds"}
	for _, m := range mappers {
		per := totalOut / int64(m)
		x := float64(per) / float64(util.GB)

		// 50 co-deployed machines (Section V-G); storage services on
		// the same 50 nodes, dedicated control nodes.
		for _, which := range []string{"hdfs", "bsfs"} {
			env := sim.NewEnv()
			net := simnet.New(env, simnet.Grid5000(60))
			trackers := make([]simnet.NodeID, 50)
			for i := range trackers {
				trackers[i] = simnet.NodeID(10 + i)
			}
			var st simstore.Storage
			if which == "hdfs" {
				h := simstore.NewHDFS(net, tun, placement.NewLocalFirst(placement.NewRandomSticky(8, uint64(m))), 0, trackers)
				st = simstore.NewHDFSFiles(h, BlockSize)
			} else {
				metas := []simnet.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
				b := simstore.NewBSFS(net, tun, placement.NewRoundRobin(), 0, metas, trackers)
				st = simstore.NewBSFSFiles(b, BlockSize, 1)
			}
			done, err := simmr.RunRandomTextWriter(st, simmr.DefaultConfig(trackers), m, per, rtwGenRate)
			if err != nil {
				panic(err)
			}
			pt := Point{X: x, Y: done.Seconds()}
			if which == "hdfs" {
				hdfs.Points = append(hdfs.Points, pt)
			} else {
				bsfs.Points = append(bsfs.Points, pt)
			}
		}
	}
	return []Series{hdfs, bsfs}
}

// Fig6b reproduces distributed grep: the input file grows from 6.4 GB
// to 12.8 GB (about 100 to 200 concurrent mappers over 150 co-deployed
// machines).
func Fig6b(inputGBs []float64) []Series {
	tun := simstore.DefaultTuning()
	hdfs := Series{Name: "HDFS", XLabel: "input size (GB)", YLabel: "seconds"}
	bsfs := Series{Name: "BSFS", XLabel: "input size (GB)", YLabel: "seconds"}
	for _, gb := range inputGBs {
		size := int64(gb*float64(util.GB)) / BlockSize * BlockSize
		for _, which := range []string{"hdfs", "bsfs"} {
			env := sim.NewEnv()
			net := simnet.New(env, simnet.Grid5000(172))
			trackers := make([]simnet.NodeID, 150)
			for i := range trackers {
				trackers[i] = simnet.NodeID(21 + i)
			}
			var st simstore.Storage
			if which == "hdfs" {
				// One fixed seed across the sweep: the same deployment serves
				// every input size in the paper's experiment.
				h := simstore.NewHDFS(net, tun, placement.NewLocalFirst(placement.NewRandomSticky(8, 42)), 0, trackers)
				st = simstore.NewHDFSFiles(h, BlockSize)
			} else {
				metas := make([]simnet.NodeID, 20)
				for i := range metas {
					metas[i] = simnet.NodeID(1 + i)
				}
				b := simstore.NewBSFS(net, tun, placement.NewRoundRobin(), 0, metas, trackers)
				st = simstore.NewBSFSFiles(b, BlockSize, 1)
			}
			// Boot-up: write the input from a dedicated node (node 171
			// is outside the tracker range).
			writer := simnet.NodeID(171)
			if err := st.CreateFile("/input"); err != nil {
				panic(err)
			}
			env.Go(func(p *sim.Proc) {
				for off := int64(0); off < size; off += BlockSize {
					if err := st.AppendBlock(p, writer, "/input", BlockSize); err != nil {
						panic(err)
					}
				}
			})
			env.Run()
			done, err := simmr.RunGrep(st, simmr.DefaultConfig(trackers), "/input", grepScanRate)
			if err != nil {
				panic(err)
			}
			pt := Point{X: gb, Y: done.Seconds()}
			if which == "hdfs" {
				hdfs.Points = append(hdfs.Points, pt)
			} else {
				bsfs.Points = append(bsfs.Points, pt)
			}
		}
	}
	return []Series{hdfs, bsfs}
}

func mbps(bytes int64, elapsed sim.Time) float64 {
	s := elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(bytes) / float64(util.MB) / s
}
