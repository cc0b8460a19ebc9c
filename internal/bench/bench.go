// Package bench regenerates every figure of the paper's evaluation
// (Section V) on the simulated Grid'5000 testbed, plus ablations that
// vary one design choice each. Every simulated experiment is built from
// the same few drivers: a deployment on the paper topology, the
// dedicated single writer, the concurrent chunk readers, the concurrent
// appenders, and the Map/Reduce storage of Figure 6. Figures and
// Ablations list what cmd/figures prints; the real-stack experiments
// return a Report.
package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"

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

// Experiment is one table cmd/figures prints: a paper figure or an
// ablation, with the id -fig selects a figure by.
type Experiment struct {
	ID    string
	Title string
	Run   func() []Series
}

// Figures lists the paper's figures in print order, at the paper's
// sweeps or, quick, at three points a curve.
func Figures(quick bool) []Experiment {
	gbs := []float64{1, 2, 4, 6, 8, 10, 12, 14, 16}
	clients := []int{1, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250}
	mappers := []int{50, 25, 10, 5, 2, 1}
	inputs := []float64{6.4, 8.0, 9.6, 11.2, 12.8}
	if quick {
		gbs, clients = []float64{1, 8, 16}, []int{1, 100, 250}
		mappers, inputs = []int{50, 5, 1}, []float64{6.4, 9.6, 12.8}
	}
	return []Experiment{
		{"3a", "Figure 3(a) — single writer, single file: throughput vs file size", func() []Series { return Fig3a(gbs) }},
		{"3b", "Figure 3(b) — load balance: Manhattan distance to the ideal layout", func() []Series { return Fig3b(gbs) }},
		{"4", "Figure 4 — concurrent readers, shared file: per-client throughput", func() []Series { return Fig4(clients) }},
		{"5", "Figure 5 — concurrent appenders, shared file: aggregated throughput", func() []Series { return Fig5(clients) }},
		{"6a", "Figure 6(a) — RandomTextWriter: job completion time vs per-mapper output", func() []Series { return Fig6a(mappers) }},
		{"6b", "Figure 6(b) — distributed grep: job completion time vs input size", func() []Series { return Fig6b(inputs) }},
	}
}

// Ablations lists the design-choice ablations in print order.
func Ablations() []Experiment {
	return []Experiment{
		{"placement", "Ablation — placement strategy (Fig-4 workload, 150 readers)", func() []Series { return AblationPlacement(150) }},
		{"vmservice", "Ablation — version-manager service time (Fig-5 workload, 150 appenders)", func() []Series { return AblationVMService(150, []float64{0.5, 2, 10, 50}) }},
		{"blocksize", "Ablation — block size (4 GB single writer)", func() []Series { return AblationBlockSize(4, []int{16, 32, 64, 128}) }},
		{"replication", "Ablation — replication level (4 GB single writer)", func() []Series { return AblationReplication(4, []int{1, 2, 3}) }},
	}
}

// Report is a real-stack experiment's result, written as a BENCH_*.json
// file: titled tables of series, named values, and the least value each
// checked name may take.
type Report struct {
	Sections []Section          `json:"sections"`
	Values   map[string]float64 `json:"values,omitempty"`
	Min      map[string]float64 `json:"min,omitempty"`
}

// Section is one titled table of a report.
type Section struct {
	Title  string   `json:"title"`
	Series []Series `json:"series"`
}

// String renders the report's tables and values for the terminal.
func (r Report) String() string {
	var sb strings.Builder
	for _, s := range r.Sections {
		sb.WriteString(Table(s.Title, s.Series) + "\n")
	}
	sep := ""
	for _, k := range slices.Sorted(maps.Keys(r.Values)) {
		v, prec := r.Values[k], 3
		if v == math.Trunc(v) {
			prec = 0
		}
		fmt.Fprintf(&sb, "%s%s=%.*f", sep, k, prec, v)
		sep = " "
	}
	if sep != "" {
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Check fails when a value falls below its minimum: the acceptance a
// report pins where it runs alone on its machine.
func (r Report) Check() error {
	for _, k := range slices.Sorted(maps.Keys(r.Min)) {
		if v := r.Values[k]; v < r.Min[k] {
			return fmt.Errorf("%s = %.3f, want >= %g", k, v, r.Min[k])
		}
	}
	return nil
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

// systems are the two file systems every figure compares, in series
// order.
var systems = []string{"HDFS", "BSFS"}

// deploy builds system ("HDFS" or "BSFS") on the paper's 270 machines
// plus the dedicated client, and returns its file view and its storage
// machines. The control node (the namenode, or the version manager
// with the provider manager) is node 0; BSFS's metaCount metadata
// providers come next and storage takes the rest. Files stripe over
// bs-byte chunks, with r copies each on BSFS.
func deploy(system string, tun simstore.Tuning, s placement.Strategy, bs int64, r int) (simstore.Storage, []simnet.NodeID) {
	net := simnet.New(sim.NewEnv(), simnet.Grid5000(fabricNodes))
	nodes := nodeRange(1, totalNodes-1)
	if system == "HDFS" {
		return simstore.NewHDFSFiles(simstore.NewHDFS(net, tun, s, 0, nodes), bs), nodes
	}
	b := simstore.NewBSFS(net, tun, s, 0, nodes[:metaCount], nodes[metaCount:])
	return simstore.NewBSFSFiles(b, bs, r), nodes[metaCount:]
}

// paperPlacement is each system's own placement: round-robin for BSFS;
// for HDFS, local-first over sticky-random windows drawn from seed.
func paperPlacement(system string, seed uint64) placement.Strategy {
	if system == "HDFS" {
		return placement.NewLocalFirst(placement.NewRandomSticky(8, seed))
	}
	return placement.NewRoundRobin()
}

// paper deploys system as the figures run it.
func paper(system string, seed uint64) (simstore.Storage, []simnet.NodeID) {
	return deploy(system, simstore.DefaultTuning(), paperPlacement(system, seed), BlockSize, 1)
}

// nodeRange returns the n machines numbered from first.
func nodeRange(first, n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(first + i)
	}
	return out
}

// writeFile is the dedicated single writer: client creates name and
// streams size bytes into it one chunk at a time, each committed before
// the next (HDFS's pipeline; BSFS's write-behind cache, like the real
// client). It returns the virtual time the write finished.
func writeFile(st simstore.Storage, client simnet.NodeID, name string, size int64) sim.Time {
	must(st.CreateFile(name))
	var end sim.Time
	st.Env().Go(func(p *sim.Proc) {
		for off := int64(0); off < size; off += st.BlockSize() {
			must(st.AppendBlock(p, client, name, st.BlockSize()))
		}
		end = p.Now()
	})
	st.Env().Run()
	return end
}

// readChunks is Figure 4's workload: the dedicated client writes n
// chunks, then n clients on storage machines each read a distinct
// chunk at once. It returns their mean throughput in MB/s. Client i
// runs half the cluster away from storage machine i, so co-location is
// coincidental, like the paper's random client subset.
func readChunks(st simstore.Storage, nodes []simnet.NodeID, n int) float64 {
	bs := st.BlockSize()
	writeFile(st, clientNode, "/f", int64(n)*bs)
	var tp []float64
	for i := range n {
		client := nodes[(i+len(nodes)/2)%len(nodes)]
		st.Env().Go(func(p *sim.Proc) {
			start := p.Now()
			must(st.ReadRange(p, client, "/f", int64(i)*bs, bs))
			tp = append(tp, float64(bs)/float64(util.MB)/(p.Now()-start).Seconds())
		})
	}
	st.Env().Run()
	return util.Mean(tp)
}

// appendAll runs one appender per entry of files at once: appender i,
// on storage machine nodes[(i*stride+len(nodes)/2)%len(nodes)], appends
// count chunks to files[i]. It returns the virtual time the last one
// finished.
func appendAll(st simstore.Storage, nodes []simnet.NodeID, files []string, stride, count int) sim.Time {
	var last sim.Time
	for i, name := range files {
		client := nodes[(i*stride+len(nodes)/2)%len(nodes)]
		st.Env().Go(func(p *sim.Proc) {
			for range count {
				must(st.AppendBlock(p, client, name, st.BlockSize()))
			}
			last = max(last, p.Now())
		})
	}
	st.Env().Run()
	return last
}

// appendShared is Figure 5's workload: n clients on storage machines
// each append one chunk to one shared file at once. It returns their
// aggregate MB/s.
func appendShared(tun simstore.Tuning, n int) float64 {
	st, nodes := deploy("BSFS", tun, placement.NewRoundRobin(), BlockSize, 1)
	must(st.CreateFile("/f"))
	return mbps(int64(n)*BlockSize, appendAll(st, nodes, slices.Repeat([]string{"/f"}, n), 1, 1))
}

// fig6Storage deploys system for the Map/Reduce runs of Section V-G:
// the control node on node 0, BSFS's metadata providers on metas, and
// storage co-deployed with the tasktrackers.
func fig6Storage(net *simnet.Net, system string, seed uint64, metas, trackers []simnet.NodeID) simstore.Storage {
	tun, s := simstore.DefaultTuning(), paperPlacement(system, seed)
	if system == "HDFS" {
		return simstore.NewHDFSFiles(simstore.NewHDFS(net, tun, s, 0, trackers), BlockSize)
	}
	return simstore.NewBSFSFiles(simstore.NewBSFS(net, tun, s, 0, metas, trackers), BlockSize, 1)
}

// sweep runs one experiment per x and arm and returns one series per
// arm, y(a, i) being arm a's value at xs[i].
func sweep(xLabel, yLabel string, xs []float64, arms []string, y func(a, i int) float64) []Series {
	out := make([]Series, len(arms))
	for a, name := range arms {
		out[a] = Series{Name: name, XLabel: xLabel, YLabel: yLabel}
	}
	for i, x := range xs {
		for a := range arms {
			out[a].Points = append(out[a].Points, Point{X: x, Y: y(a, i)})
		}
	}
	return out
}

// Fig3a reproduces "single writer, single file": one dedicated client
// sequentially writes an N x 64 MB file; the y-axis is its sustained
// write throughput (MB/s) as the file size (GB) grows.
func Fig3a(fileGBs []float64) []Series {
	return sweep("file size (GB)", "MB/s", fileGBs, systems, func(a, i int) float64 {
		size := fileSize(fileGBs[i])
		st, _ := paper(systems[a], uint64(size))
		return mbps(size, writeFile(st, clientNode, "/f", size))
	})
}

// Fig3b reproduces the load-balance evaluation: the Manhattan distance
// between the produced data layout and a perfectly balanced one, for
// the same single-writer runs as Fig3a.
func Fig3b(fileGBs []float64) []Series {
	return sweep("file size (GB)", "unbalance", fileGBs, systems, func(a, i int) float64 {
		size := fileSize(fileGBs[i])
		st, _ := paper(systems[a], uint64(size)+7)
		writeFile(st, clientNode, "/f", size)
		return util.ManhattanDistance(st.Layout())
	})
}

// fileSize is gb rounded down to whole chunks, at least one.
func fileSize(gb float64) int64 {
	return max(chunks(gb, BlockSize), BlockSize)
}

// chunks is gb rounded down to whole bs-byte chunks.
func chunks(gb float64, bs int64) int64 {
	return int64(gb*float64(util.GB)) / bs * bs
}

// Fig4 reproduces "concurrent reads, shared file": a dedicated node
// writes N x 64 MB; then N clients (running on storage machines, as in
// the paper's measurement phase) each read a distinct 64 MB chunk. The
// y-axis is the average per-client throughput.
func Fig4(clients []int) []Series {
	return sweep("clients", "MB/s per client", floats(clients), systems, func(a, i int) float64 {
		st, nodes := paper(systems[a], uint64(clients[i])*13+1)
		return readChunks(st, nodes, clients[i])
	})
}

// Fig5 reproduces "concurrent appends, shared file": N clients each
// append 64 MB to one BLOB; the y-axis is the aggregated throughput
// (MB/s). HDFS has no curve here — it does not implement append.
func Fig5(clients []int) []Series {
	return sweep("clients", "aggregated MB/s", floats(clients), []string{"BSFS"}, func(_, i int) float64 {
		return appendShared(simstore.DefaultTuning(), clients[i])
	})
}

// Application-model constants for Figure 6: the per-task CPU rates.
const (
	rtwGenRate   = 66e6 // RandomTextWriter text generation, bytes/s
	grepScanRate = 24e6 // grep map task scan rate, bytes/s
)

// Fig6a reproduces RandomTextWriter: 6.4 GB of total output, the
// per-mapper share varying from 128 MB (50 mappers) to 6.4 GB (one
// mapper); 50 co-deployed tasktracker/storage machines.
func Fig6a(mappers []int) []Series {
	gb := float64(util.GB) // a variable: 6.4 GB is not a whole number of bytes
	totalOut := int64(6.4 * gb)
	xs := make([]float64, len(mappers))
	for i, m := range mappers {
		xs[i] = float64(totalOut/int64(m)) / float64(util.GB)
	}
	return sweep("GB per mapper", "seconds", xs, systems, func(a, i int) float64 {
		m := mappers[i]
		// 50 co-deployed machines (Section V-G), dedicated control nodes.
		net := simnet.New(sim.NewEnv(), simnet.Grid5000(60))
		trackers := nodeRange(10, 50)
		st := fig6Storage(net, systems[a], uint64(m), nodeRange(1, 10), trackers)
		done, err := simmr.RunRandomTextWriter(st, simmr.DefaultConfig(trackers), m, totalOut/int64(m), rtwGenRate)
		must(err)
		return done.Seconds()
	})
}

// Fig6b reproduces distributed grep: the input file grows from 6.4 GB
// to 12.8 GB (about 100 to 200 concurrent mappers over 150 co-deployed
// machines).
func Fig6b(inputGBs []float64) []Series {
	return sweep("input size (GB)", "seconds", inputGBs, systems, func(a, i int) float64 {
		net := simnet.New(sim.NewEnv(), simnet.Grid5000(172))
		trackers := nodeRange(21, 150)
		// One fixed HDFS seed across the sweep: the same deployment
		// serves every input size in the paper's experiment.
		st := fig6Storage(net, systems[a], 42, nodeRange(1, 20), trackers)
		// Boot-up: write the input from a dedicated node (node 171 is
		// outside the tracker range).
		writeFile(st, 171, "/input", chunks(inputGBs[i], BlockSize))
		done, err := simmr.RunGrep(st, simmr.DefaultConfig(trackers), "/input", grepScanRate)
		must(err)
		return done.Seconds()
	})
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func mbps(bytes int64, elapsed sim.Time) float64 {
	s := elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(bytes) / float64(util.MB) / s
}

// must panics on a simulated operation's error: the experiments are
// deterministic, so one means the model is broken.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
