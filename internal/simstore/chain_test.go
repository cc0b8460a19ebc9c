package simstore

import (
	"math"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/placement"
	"blobseer/internal/sim"
	"blobseer/internal/simnet"
	"blobseer/internal/util"
)

// writeBlocks runs one multi-block append from node 10 and returns the
// virtual completion time.
func writeBlocks(t *testing.T, b *BSFS, id blob.ID, nBlocks int) sim.Time {
	t.Helper()
	var end sim.Time
	b.Env.Go(func(p *sim.Proc) {
		if _, err := b.Write(p, 10, id, blob.KindAppend, 0, int64(nBlocks)*testBlock, 1); err != nil {
			t.Error(err)
			return
		}
		end = p.Now()
	})
	b.Env.Run()
	return end
}

// TestChainedWriteClientEgress is the acceptance byte-count pin: on the
// simnet billing model, a chained write of N blocks at replication R
// charges the client exactly N blocks of uplink egress — not R×N —
// with the remaining (R-1)×N block copies billed hop by hop to the
// forwarding providers.
func TestChainedWriteClientEgress(t *testing.T) {
	const (
		nBlocks = 8
		repl    = 3
		client  = 10
	)
	payload := float64(nBlocks) * float64(testBlock)

	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, repl)
	writeBlocks(t, b, m.ID, nBlocks)

	egress := b.Net.EgressOf(client)
	if math.Abs(egress-payload) > 1 {
		t.Errorf("chained client egress = %.0f bytes, want exactly %.0f (N blocks, not R×N)", egress, payload)
	}
	// The other R-1 copies travel provider-to-provider.
	var provEgress float64
	for _, n := range b.provNode {
		provEgress += b.Net.EgressOf(n)
	}
	if want := float64(repl-1) * payload; math.Abs(provEgress-want) > 1 {
		t.Errorf("provider forwarding egress = %.0f bytes, want %.0f ((R-1)×N blocks)", provEgress, want)
	}
}

// TestReadRotationSpreadsReplicaLoad: with the block replicated on two
// providers, repeated reads must be served by both, not serialize on
// the first recorded replica.
func TestReadRotationSpreadsReplicaLoad(t *testing.T) {
	b := smallBSFS(t)
	m := b.CreateBlob(testBlock, 2)
	b.Env.Go(func(p *sim.Proc) {
		if _, err := b.Write(p, 10, m.ID, blob.KindAppend, 0, testBlock, 1); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			if _, err := b.Read(p, 11, m.ID, 0, testBlock); err != nil {
				t.Error(err)
				return
			}
		}
	})
	b.Env.Run()

	// Find the two provider nodes holding the replicas and check both
	// served read traffic (write-hop egress is at most one block).
	served := 0
	for _, n := range b.provNode {
		if b.Net.EgressOf(n) > 1.5*float64(testBlock) {
			served++
		}
	}
	if served < 2 {
		t.Errorf("4 reads of a 2-replica block were served by %d providers, want both", served)
	}
}

// BenchmarkWriteChained reports client egress per write on the simnet
// billing model at R=3.
func BenchmarkWriteChained(b *testing.B) {
	const (
		nBlocks = 8
		repl    = 3
		client  = 10
	)
	var egressPerWrite, mbps float64
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		net := simnet.New(env, simnet.Grid5000(12))
		bs := NewBSFS(net, DefaultTuning(), placement.NewRoundRobin(), 0,
			[]simnet.NodeID{1, 2}, []simnet.NodeID{3, 4, 5, 6, 7, 8, 9})
		m := bs.CreateBlob(testBlock, repl)
		var end sim.Time
		bs.Env.Go(func(p *sim.Proc) {
			if _, err := bs.Write(p, client, m.ID, blob.KindAppend, 0, nBlocks*testBlock, 1); err != nil {
				b.Error(err)
				return
			}
			end = p.Now()
		})
		bs.Env.Run()
		egressPerWrite = net.EgressOf(client)
		mbps = float64(nBlocks*testBlock) / float64(util.MB) / end.Seconds()
	}
	b.ReportMetric(egressPerWrite/float64(util.MB), "client_egress_MB/write")
	b.ReportMetric(mbps, "sim_MB/s")
}
