package obs_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/obs"
)

// TestCPUSamplesCarryLabels runs the paper's Fig 5 shape in process (2
// appenders on one blob, 64 KB blocks, loopback TCP) under a CPU
// profile, and requires 90% of the CPU time of samples with a
// blobseer/ frame to carry profiler labels: a server method's role and
// method, a client's op, or a connection goroutine's rpc. What stays
// unlabelled is the runtime's own work, and goroutines no entry point
// or connection starts. CPUShares, which bsfsctl profile prints, must
// then name the append's heaviest method, and keep the labels one
// appender's caller set (pprof.Do) beside its op.
func TestCPUSamplesCarryLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	const blockSize = 64 << 10
	cl, err := cluster.StartBlobSeer(cluster.Config{BlockSize: blockSize, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	first, err := cl.NewClient("").CreateBlob(ctx, blockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.NewClient("").OpenBlob(ctx, first.ID())
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("a CPU profile is running already: %v", err)
	}
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for i, bl := range []*core.Blob{first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]byte, blockSize)
			run := func(ctx context.Context) {
				for time.Now().Before(deadline) {
					if _, err := bl.Append(ctx, data); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if i == 0 { // a caller's own labels stay, and op joins them
				pprof.Do(ctx, pprof.Labels("appender", "first"), run)
			} else {
				run(ctx)
			}
		}()
	}
	wg.Wait()
	pprof.StopCPUProfile()

	ours, labelled := frameShares(t, prof.Bytes())
	if ours == 0 {
		t.Fatal("no sample has a blobseer/ frame")
	}
	share := float64(labelled) / float64(ours)
	t.Logf("%.1f%% of %v in samples with a blobseer/ frame is labelled", 100*share, time.Duration(ours))
	if share < 0.9 {
		t.Errorf("%.1f%% of the CPU time of samples with a blobseer/ frame carries a label, want 90%% at least", 100*share)
	}
	shares := make(map[string]int64)
	if err := obs.CPUShares(bytes.NewReader(prof.Bytes()), shares); err != nil {
		t.Fatal(err)
	}
	t.Logf("CPU by labels: %v", shares)
	for _, want := range []string{"method=put_chained,role=provider", "op=append", "appender=first,op=append"} {
		if shares[want] == 0 {
			t.Errorf("CPUShares names no CPU time %q; it has %v", want, shares)
		}
	}
}

// frameShares reads a CPU profile and returns the CPU nanoseconds of
// the samples with a blobseer/ frame, and of those that carry a label.
func frameShares(t *testing.T, gz []byte) (ours, labelled int64) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		ns       int64
		locs     []uint64
		labelled bool
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids (inlined ones too)
	funcName := map[uint64]uint64{}   // function id -> string table index
	var strs []string
	uvarints := func(p []byte) (out []uint64) { // a packed repeated field
		for len(p) > 0 {
			var v uint64
			n := 0
			for shift := 0; ; shift += 7 {
				v |= uint64(p[n]&0x7f) << shift
				n++
				if p[n-1] < 0x80 {
					break
				}
			}
			out, p = append(out, v), p[n:]
		}
		return out
	}
	walk := func(b []byte, fn func(f int, v uint64, p []byte)) {
		if err := obs.ProtoFields(b, fn); err != nil {
			t.Fatal(err)
		}
	}
	walk(b, func(f int, _ uint64, p []byte) {
		switch f {
		case 2: // Sample
			var s sample
			walk(p, func(f int, v uint64, p []byte) {
				switch {
				case f == 1 && p == nil:
					s.locs = append(s.locs, v)
				case f == 1:
					s.locs = append(s.locs, uvarints(p)...)
				case f == 2:
					s.ns = int64(v)
				case f == 3:
					s.labelled = true
				}
			})
			samples = append(samples, s)
		case 4: // Location: id, lines
			var id uint64
			var fns []uint64
			walk(p, func(f int, v uint64, p []byte) {
				switch f {
				case 1:
					id = v
				case 4:
					walk(p, func(f int, v uint64, _ []byte) {
						if f == 1 {
							fns = append(fns, v)
						}
					})
				}
			})
			locFuncs[id] = fns
		case 5: // Function: id, name
			var id, name uint64
			walk(p, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcName[id] = name
		case 6:
			strs = append(strs, string(p))
		}
	})
	for _, s := range samples {
		mine := false
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				mine = mine || strings.HasPrefix(strs[funcName[fn]], "blobseer/")
			}
		}
		if mine {
			ours += s.ns
			if s.labelled {
				labelled += s.ns
			}
		}
	}
	return ours, labelled
}

// TestCPUSharesRefusesMalformed: a profile is outside input (bsfsctl
// fetches it from a daemon), so a cut or inconsistent one fails with an
// error, never a panic.
func TestCPUSharesRefusesMalformed(t *testing.T) {
	for name, raw := range map[string][]byte{
		"cut varint":          {0x08, 0x80},
		"length past the end": {0x12, 0x05, 0x10},
		"label past strings":  {0x12, 0x06, 0x10, 0x64, 0x1a, 0x02, 0x08, 0x07}, // sample{value 100, label{key 7}}
		"unknown wire type":   {0x0b},
	} {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(raw)
		zw.Close()
		if err := obs.CPUShares(&gz, map[string]int64{}); err == nil {
			t.Errorf("%s: CPUShares accepted %x", name, raw)
		}
	}
	if err := obs.CPUShares(strings.NewReader("not gzip"), map[string]int64{}); err == nil {
		t.Error("CPUShares accepted a body that is not gzip")
	}
}
