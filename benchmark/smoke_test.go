package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// The smoke test runs every workload at -quick scale, end to end and
// traced, and holds the program to BENCHMARK.json: the metric names it
// reports are exactly the declared ones, with the declared units.

type declared struct {
	RunSeconds float64                       `json:"run_seconds"`
	Workloads  []struct{ Name string }       `json:"workloads"`
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec declared
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestQuickSuiteMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	want := append([]string(nil), workloadOrder...)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for _, w := range workloadOrder {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), options{workload: w, seed: 1, quick: true, trace: trace, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w, trace, rep.failed, rep.attempted)
			}
			decl := spec.EndToEnd
			if trace {
				decl = spec.PerLayer
			}
			units := make(map[string]string)
			for _, d := range decl {
				units[d.Name] = d.Unit
			}
			got := make(map[string]string)
			for _, d := range rep.defs {
				if _, ok := rep.values[d.name]; !ok {
					t.Errorf("%s trace=%v: %s declared by the program but never reported", w, trace, d.name)
				}
				got[d.name] = d.unit
			}
			for name, unit := range got {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q is outside the contract's alphabet", name)
				}
				if units[name] != unit {
					t.Errorf("%s: program reports unit %q, BENCHMARK.json declares %q", name, unit, units[name])
				}
			}
			for name := range units {
				if _, ok := got[name]; !ok {
					t.Errorf("%s trace=%v: BENCHMARK.json declares %s, the program does not report it", w, trace, name)
				}
			}
			if !trace {
				for name, v := range rep.values {
					if v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, v)
					}
				}
				continue
			}
			// The probes run once in a suite, in probeWorkload's traced run.
			for _, d := range probeMetrics {
				if v := rep.values[d.name]; (v > 0) != (w == probeWorkload) {
					t.Errorf("%s: probe metric %s = %v; probes run with %s only", w, d.name, v, probeWorkload)
				}
			}
		}
	}
}

// The checks that feed failed_op_ratio must themselves notice damage.
func TestVerifiersRejectDamage(t *testing.T) {
	p := newPayload(7, 4*chunkSize)
	chunk := p.clone()[chunkSize : 2*chunkSize]
	stamp(chunk, 9, 5)
	if err := p.verifyChunk(chunk, 9, 5, 1); err != nil {
		t.Fatalf("intact chunk rejected: %v", err)
	}
	if p.verifyChunk(chunk, 9, 6, 1) == nil {
		t.Error("wrong chunk index accepted")
	}
	chunk[chunkSize/2] ^= 1
	if p.verifyChunk(chunk, 9, 5, 1) == nil {
		t.Error("flipped content bit accepted")
	}

	buf := make([]byte, mixedReadSize)
	off := int64(3*mixedBlockSize + 12345) // unaligned: spans blocks 3, 4 and 5
	fill := func(seq4 uint32) {
		for pos := int64(0); pos < int64(len(buf)); {
			abs := off + pos
			blk, in := abs/mixedBlockSize, abs%mixedBlockSize
			n := min(mixedBlockSize-in, int64(len(buf))-pos)
			whole := make([]byte, mixedBlockSize)
			seq := uint32(1)
			if blk == 4 {
				seq = seq4
			}
			fillWords(whole, uint32(blk), seq)
			copy(buf[pos:pos+n], whole[in:in+n])
			pos += n
		}
	}
	fill(2)
	if err := checkMixedRead(buf, off); err != nil {
		t.Fatalf("intact read rejected: %v", err)
	}
	// A torn block: its second half comes from another write.
	torn := make([]byte, mixedBlockSize)
	fillWords(torn, 4, 3)
	start := 4*mixedBlockSize - off
	copy(buf[start+mixedBlockSize/2:start+mixedBlockSize], torn[mixedBlockSize/2:])
	if checkMixedRead(buf, off) == nil {
		t.Error("torn read accepted")
	}
	// A misplaced block: uniform, but another block's pattern.
	fill(2)
	fillWords(torn, 7, 2)
	copy(buf[start:start+mixedBlockSize], torn)
	if checkMixedRead(buf, off) == nil {
		t.Error("misplaced block accepted")
	}
}

// The work of a run is fixed by --seconds, a run that slows with
// process age is invalid, and a segment out of wall clock stops after
// the slice it is in.
func TestFixedWorkAndSteadyGuard(t *testing.T) {
	if got := readSpec(t).RunSeconds; got != nominalSeconds {
		t.Errorf("BENCHMARK.json run_seconds %v, the program's nominal length is %v", got, nominalSeconds)
	}
	for name, w := range workloads {
		if got := segments * slicesPerSegment(w, nominalSeconds); got != w.slices() {
			t.Errorf("%s: %d slices at the nominal length, want %d", name, got, w.slices())
		}
		if got := slicesPerSegment(w, 0.001); got != 1 {
			t.Errorf("%s: %d slices per segment at no length, want 1", name, got)
		}
	}
	series := func(perSlice ...float64) [][]sliceStats {
		var segs [][]sliceStats
		for k := range segments {
			var seg []sliceStats
			for _, mbs := range perSlice[:len(perSlice)-k] { // later processes ran out of clock sooner
				seg = append(seg, sliceStats{Payload: int64(mbs * 1e6), Wall: time.Second})
			}
			segs = append(segs, seg)
		}
		return segs
	}
	if ok, _, _ := steady(series(100, 104, 97, 101, 96, 99, 102)); !ok {
		t.Error("a flat series tripped the guard")
	}
	if ok, first, last := steady(series(100, 99, 95, 92, 88, 86, 84)); ok {
		t.Errorf("a series falling from %v to %v MB/s with process age passed the guard", first, last)
	}
	if ok, _, _ := steady(series(100, 50, 100, 100)[2:]); !ok {
		t.Error("processes of one and two slices have no thirds to compare, yet tripped the guard")
	}

	r, err := newRunner(options{workload: "append_shared", seed: 1, quick: true, outDir: t.TempDir()}, appendShared{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for budget, want := range map[time.Duration]int{0: 3, time.Nanosecond: 1} {
		p, err := r.run(context.Background(), nil, 0, 3, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.m.slices); got != want {
			t.Errorf("budget %v: %d of 3 slices measured, want %d", budget, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
