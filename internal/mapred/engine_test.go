package mapred_test

import (
	"bufio"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/fs"
	"blobseer/internal/mapred"
	"blobseer/internal/mapred/apps"
)

const B = 4 * 1024

// storageFactory abstracts "which paper storage layer backs the job".
type storageFactory struct {
	name  string
	start func(t *testing.T, nodes int) func(host string) (fs.FileSystem, error)
}

var backends = []storageFactory{
	{
		name: "bsfs",
		start: func(t *testing.T, nodes int) func(string) (fs.FileSystem, error) {
			cl, err := cluster.StartBlobSeer(cluster.Config{
				DataProviders: nodes, MetaProviders: 2, BlockSize: B,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Stop)
			return func(host string) (fs.FileSystem, error) { return cl.NewBSFS(host) }
		},
	},
	{
		name: "hdfs",
		start: func(t *testing.T, nodes int) func(string) (fs.FileSystem, error) {
			h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: nodes, BlockSize: B})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(h.Stop)
			return func(host string) (fs.FileSystem, error) { return h.NewFS(host) }
		},
	},
}

func startEngine(t *testing.T, fsFor func(string) (fs.FileSystem, error), trackers int) *cluster.MapRed {
	t.Helper()
	m, err := cluster.StartMapRed(cluster.MapRedConfig{
		Trackers: trackers,
		FSFor:    fsFor,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// runJob submits conf and waits for the job to finish; a job that ends
// failed is an error.
func runJob(ctx context.Context, jt *mapred.JTClient, conf mapred.JobConf) (mapred.JobStatus, error) {
	id, err := jt.Submit(ctx, conf)
	if err != nil {
		return mapred.JobStatus{}, err
	}
	st, err := jt.Wait(ctx, id, 0)
	if err == nil && st.State == mapred.JobFailed {
		err = fmt.Errorf("job failed: %s", st.Err)
	}
	return st, err
}

func catDir(t *testing.T, fsys fs.FileSystem, dir string) string {
	t.Helper()
	sts, err := fsys.List(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, st := range sts {
		if st.IsDir {
			continue
		}
		r, err := fsys.Open(context.Background(), st.Path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		r.Close()
	}
	return sb.String()
}

func TestRandomTextWriterOnBothBackends(t *testing.T) {
	// The paper's first application: map-only, every mapper writes its
	// own output file (Section V-G, Figure 6a).
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			fsFor := backend.start(t, 4)
			m := startEngine(t, fsFor, 3)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			st, err := runJob(ctx, m.Client(), mapred.JobConf{
				Name: "rtw",
				App:  apps.RandomTextWriterApp,
				Args: map[string]string{
					"mappers":        "6",
					"bytesPerMapper": strconv.Itoa(2 * B),
				},
				OutputDir: "/out-rtw",
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.MapsTotal != 6 || st.MapsDone != 6 {
				t.Errorf("status = %+v", st)
			}
			fsys, _ := fsFor("")
			sts, err := fsys.List(ctx, "/out-rtw")
			if err != nil || len(sts) != 6 {
				t.Fatalf("outputs = %d files, %v", len(sts), err)
			}
			var total int64
			for _, s := range sts {
				if s.Size == 0 {
					t.Errorf("empty output %s", s.Path)
				}
				total += s.Size
			}
			if total < 6*2*B {
				t.Errorf("total output %d < requested %d", total, 6*2*B)
			}
		})
	}
}

func TestDistributedGrepOnBothBackends(t *testing.T) {
	// The paper's second application: concurrent reads of a shared
	// input file, counting lines matching an expression (Figure 6b).
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			fsFor := backend.start(t, 4)
			fsys, err := fsFor("")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			// Build an input with a known number of matches spread over
			// multiple blocks.
			w, err := fsys.Create(ctx, "/grep-input", true)
			if err != nil {
				t.Fatal(err)
			}
			wantMatches := 0
			for i := 0; int64(i*40) < 3*B; i++ {
				line := fmt.Sprintf("log entry %06d without the token\n", i)
				if i%7 == 0 {
					line = fmt.Sprintf("log entry %06d with NEEDLE inside\n", i)
					wantMatches++
				}
				if _, err := w.Write([]byte(line)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			m := startEngine(t, fsFor, 3)
			st, err := runJob(ctx, m.Client(), mapred.JobConf{
				Name:       "grep",
				App:        apps.GrepApp,
				Args:       map[string]string{"pattern": "NEEDLE"},
				InputPaths: []string{"/grep-input"},
				OutputDir:  "/out-grep",
				NumReduces: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.MapsTotal < 2 {
				t.Errorf("expected multiple splits, got %d", st.MapsTotal)
			}
			out := strings.TrimSpace(catDir(t, fsys, "/out-grep"))
			want := fmt.Sprintf("NEEDLE\t%d", wantMatches)
			if out != want {
				t.Errorf("grep output = %q, want %q", out, want)
			}
		})
	}
}

func TestWordCountCorrectness(t *testing.T) {
	fsFor := backends[0].start(t, 4) // bsfs
	fsys, _ := fsFor("")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, err := fsys.Create(ctx, "/wc-in", true)
	if err != nil {
		t.Fatal(err)
	}
	doc := "the quick brown fox\njumps over the lazy dog\nthe dog barks\n"
	// Repeat to span several blocks.
	reps := int(3*B)/len(doc) + 1
	for i := 0; i < reps; i++ {
		if _, err := w.Write([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m := startEngine(t, fsFor, 3)
	if _, err := runJob(ctx, m.Client(), mapred.JobConf{
		Name:       "wc",
		App:        apps.WordCountApp,
		InputPaths: []string{"/wc-in"},
		OutputDir:  "/wc-out",
		NumReduces: 3,
	}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(catDir(t, fsys, "/wc-out")), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			t.Fatalf("bad output line %q", line)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		counts[parts[0]] = n
	}
	if counts["the"] != 3*reps {
		t.Errorf("count(the) = %d, want %d", counts["the"], 3*reps)
	}
	if counts["dog"] != 2*reps {
		t.Errorf("count(dog) = %d, want %d", counts["dog"], 2*reps)
	}
	if counts["fox"] != reps {
		t.Errorf("count(fox) = %d, want %d", counts["fox"], reps)
	}
}

func TestLocalityPreferredScheduling(t *testing.T) {
	// With trackers co-deployed on every storage host (the paper's
	// deployment), most map tasks should be node-local.
	cl, err := cluster.StartBlobSeer(cluster.Config{DataProviders: 4, MetaProviders: 2, BlockSize: B})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	fsFor := func(host string) (fs.FileSystem, error) { return cl.NewBSFS(host) }

	fsys, _ := fsFor("")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w, _ := fsys.Create(ctx, "/in", true)
	for i := 0; int64(i*20) < 8*B; i++ {
		fmt.Fprintf(w, "padding line %06d\n", i)
	}
	w.Close()

	// Tracker i runs on host-i, cl.HostOf(i): one tracker per provider.
	m := startEngine(t, fsFor, 4)

	st, err := runJob(ctx, m.Client(), mapred.JobConf{
		Name:       "grep-local",
		App:        apps.GrepApp,
		Args:       map[string]string{"pattern": "zzz"},
		InputPaths: []string{"/in"},
		OutputDir:  "/out",
		NumReduces: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalMaps == 0 {
		t.Errorf("no local maps: %+v", st)
	}
	if st.LocalMaps+st.RemoteMaps < st.MapsTotal {
		t.Errorf("locality accounting incomplete: %+v", st)
	}
}

func TestSharedOutputConcurrentAppendMode(t *testing.T) {
	// Section V-F's proposed improvement: reducers append to one shared
	// output file. On BSFS this works natively; the engine must fall
	// back to part files on HDFS.
	for _, backend := range backends {
		t.Run(backend.name, func(t *testing.T) {
			fsFor := backend.start(t, 4)
			fsys, _ := fsFor("")
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			w, _ := fsys.Create(ctx, "/in", true)
			for i := 0; i < 500; i++ {
				fmt.Fprintf(w, "word%d word%d target\n", i%10, i%3)
			}
			w.Close()

			m := startEngine(t, fsFor, 3)
			if fsys.Name() == "bsfs" {
				// Pre-create the shared output file so appenders have a target.
				sw, err := fsys.Create(ctx, "/shared-out/output", true)
				if err != nil {
					t.Fatal(err)
				}
				sw.Close()
			}
			if _, err := runJob(ctx, m.Client(), mapred.JobConf{
				Name:         "wc-shared",
				App:          apps.WordCountApp,
				InputPaths:   []string{"/in"},
				OutputDir:    "/shared-out",
				NumReduces:   3,
				SharedOutput: true,
			}); err != nil {
				t.Fatal(err)
			}
			sts, err := fsys.List(ctx, "/shared-out")
			if err != nil {
				t.Fatal(err)
			}
			if fsys.Name() == "bsfs" {
				if len(sts) != 1 || fs.Base(sts[0].Path) != "output" {
					t.Errorf("bsfs shared output = %+v, want single 'output' file", sts)
				}
			} else {
				if len(sts) != 3 {
					t.Errorf("hdfs fallback = %d files, want 3 part files", len(sts))
				}
			}
			// Either way the counts must be correct.
			out := catDir(t, fsys, "/shared-out")
			if !strings.Contains(out, "target\t500") {
				t.Errorf("shared output missing expected count; got:\n%s", out)
			}
		})
	}
}

// The retry tests' apps are process-global, so they register once:
// -count=N runs each test N times against the same two apps.
func init() {
	mapred.RegisterApp("flaky-test-app", &mapred.App{
		NewMapper: func(conf *mapred.JobConf) (mapred.Mapper, error) {
			return &flakyMapper{tag: "flaky", failures: 2}, nil
		},
		MakeSplits: func(ctx context.Context, fsys fs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, error) {
			return []mapred.Split{{Synthetic: true, SynthSeq: 0, SynthSize: 1}}, nil
		},
	})
	mapred.RegisterApp("always-fails-app", &mapred.App{
		NewMapper: func(conf *mapred.JobConf) (mapred.Mapper, error) {
			return &flakyMapper{tag: "doomed", failures: 1 << 30}, nil
		},
		MakeSplits: func(ctx context.Context, fsys fs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, error) {
			return []mapred.Split{{Synthetic: true}}, nil
		},
	})
}

func TestTaskRetryOnFailure(t *testing.T) {
	resetFlaky("flaky")
	fsFor := backends[0].start(t, 2)
	m := startEngine(t, fsFor, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := runJob(ctx, m.Client(), mapred.JobConf{
		Name:        "flaky",
		App:         "flaky-test-app",
		OutputDir:   "/flaky-out",
		MaxAttempts: 5,
	})
	if err != nil {
		t.Fatalf("job should succeed after retries: %v", err)
	}
	if st.MapsDone != 1 {
		t.Errorf("status = %+v", st)
	}
	if n := resetFlaky("flaky"); n != 3 {
		t.Errorf("the map ran %d times, want 3: two injected failures, then a success", n)
	}
}

func TestJobFailsAfterMaxAttempts(t *testing.T) {
	resetFlaky("doomed")
	fsFor := backends[0].start(t, 2)
	m := startEngine(t, fsFor, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := runJob(ctx, m.Client(), mapred.JobConf{
		Name:        "doomed",
		App:         "always-fails-app",
		OutputDir:   "/doomed-out",
		MaxAttempts: 2,
	})
	if err == nil {
		t.Fatal("doomed job reported success")
	}
}

// flakyMapper fails its first N attempts; attempts are counted in
// package state keyed by tag+record so retries of the same task are
// observed across mapper instances.
type flakyMapper struct {
	tag      string
	failures int
}

var flakyAttempts = struct {
	mu sync.Mutex
	n  map[string]int
}{n: map[string]int{}}

// resetFlaky forgets tag's attempts, so that a run of a test counts
// its own, and returns how many there were.
func resetFlaky(tag string) (n int) {
	flakyAttempts.mu.Lock()
	defer flakyAttempts.mu.Unlock()
	for key, a := range flakyAttempts.n {
		if strings.HasPrefix(key, tag+"/") {
			n += a
			delete(flakyAttempts.n, key)
		}
	}
	return n
}

func (f *flakyMapper) Map(ctx context.Context, rec mapred.Record, emit mapred.Emit) error {
	key := f.tag + "/" + rec.Key
	flakyAttempts.mu.Lock()
	flakyAttempts.n[key]++
	attempt := flakyAttempts.n[key]
	flakyAttempts.mu.Unlock()
	if attempt <= f.failures {
		return fmt.Errorf("injected failure (attempt %d)", attempt)
	}
	return emit("ok", "1")
}
