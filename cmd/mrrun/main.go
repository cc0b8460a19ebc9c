// Command mrrun runs one of the paper's Map/Reduce applications on an
// embedded cluster: it deploys the chosen storage layer (BSFS or the
// HDFS-like baseline), a jobtracker and tasktrackers co-located with
// the storage daemons, submits the job, and prints the outputs plus the
// locality statistics of Section V-E (local vs remote maps).
//
//	mrrun -app randomtextwriter -backend bsfs -mappers 8 -bytes 1048576
//	mrrun -app grep      -backend hdfs -generate 16777216 -pattern seer
//	mrrun -app wordcount -backend bsfs -generate 4194304
//
// The grep and wordcount runs first generate a synthetic input file of
// -generate bytes of random sentences, mirroring the paper's boot-up
// phase.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"
	"time"

	"blobseer/internal/cluster"
	"blobseer/internal/fs"
	"blobseer/internal/mapred"
	"blobseer/internal/mapred/apps"
	"blobseer/internal/stream"
	"blobseer/internal/util"
)

func main() {
	var (
		app      = flag.String("app", "grep", "application: grep | wordcount | randomtextwriter")
		backend  = flag.String("backend", "bsfs", "storage layer: bsfs | hdfs")
		nodes    = flag.Int("nodes", 4, "co-deployed storage/tasktracker machines")
		blockSz  = flag.Int64("block-size", 4*util.MB, "chunk size (the paper uses 64 MB; default is laptop-sized)")
		mappers  = flag.Int("mappers", 4, "randomtextwriter: number of map tasks")
		bytes    = flag.Int64("bytes", util.MB, "randomtextwriter: output bytes per mapper")
		generate = flag.Int64("generate", 8*util.MB, "grep/wordcount: synthetic input size to generate")
		pattern  = flag.String("pattern", "blob", "grep: substring to count")
		reduces  = flag.Int("reduces", 1, "number of reduce tasks")
		show     = flag.Int("show", 10, "output lines to print per part file")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("mrrun: ")

	ctx := context.Background()

	// Deploy the storage layer with one synthetic host per node, then
	// the Map/Reduce engine co-deployed on the same hosts.
	var fsFor func(host string) (fs.FileSystem, error)
	switch *backend {
	case "bsfs":
		cl, err := cluster.StartBlobSeer(cluster.Config{
			DataProviders:    *nodes,
			BlockSize:        *blockSz,
			ReadaheadBlocks:  stream.DefaultReadahead,
			WriteBehindDepth: stream.DefaultWriteBehind,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Stop()
		fsFor = func(host string) (fs.FileSystem, error) { return cl.NewBSFS(host) }
	case "hdfs":
		h, err := cluster.StartHDFS(cluster.HDFSConfig{Datanodes: *nodes, BlockSize: *blockSz})
		if err != nil {
			log.Fatal(err)
		}
		defer h.Stop()
		fsFor = func(host string) (fs.FileSystem, error) { return h.NewFS(host) }
	default:
		log.Fatalf("unknown backend %q", *backend)
	}
	mr, err := cluster.StartMapRed(cluster.MapRedConfig{Trackers: *nodes, FSFor: fsFor})
	if err != nil {
		log.Fatal(err)
	}
	defer mr.Stop()

	conf := mapred.JobConf{
		Name:       *app,
		App:        *app,
		OutputDir:  "/out",
		NumReduces: *reduces,
		Args:       map[string]string{},
	}
	switch *app {
	case apps.RandomTextWriterApp:
		conf.NumReduces = 0
		conf.Args["mappers"] = strconv.Itoa(*mappers)
		conf.Args["bytesPerMapper"] = strconv.FormatInt(*bytes, 10)
	case apps.GrepApp, apps.WordCountApp:
		fsys, err := fsFor("")
		if err != nil {
			log.Fatal(err)
		}
		if err := writeInput(ctx, fsys, "/input/data.txt", *generate); err != nil {
			log.Fatal(err)
		}
		log.Printf("generated %d bytes of input at /input/data.txt", *generate)
		conf.InputPaths = []string{"/input/data.txt"}
		if *app == apps.GrepApp {
			conf.Args["pattern"] = *pattern
		}
	default:
		log.Fatalf("unknown app %q", *app)
	}

	jt := mr.Client()
	start := time.Now()
	jobID, err := jt.Submit(ctx, conf)
	if err != nil {
		log.Fatal(err)
	}
	st, err := jt.Wait(ctx, jobID, 0)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if st.State == mapred.JobFailed {
		log.Fatalf("job failed: %s", st.Err)
	}
	fmt.Printf("job %d (%s on %s) completed in %v\n", jobID, *app, *backend, elapsed.Round(time.Millisecond))
	fmt.Printf("maps: %d total, %d node-local, %d remote; reduces: %d\n",
		st.MapsTotal, st.LocalMaps, st.RemoteMaps, st.ReducesDone)

	fsys, err := fsFor("")
	if err != nil {
		log.Fatal(err)
	}
	entries, err := fsys.List(ctx, "/out")
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir {
			continue
		}
		fmt.Printf("--- %s (%d bytes) ---\n", e.Path, e.Size)
		if err := head(ctx, fsys, e.Path, *show); err != nil {
			log.Fatal(err)
		}
	}
}

// writeInput fills path with random sentences from the shared word
// list, one line at a time.
func writeInput(ctx context.Context, fsys fs.FileSystem, path string, size int64) error {
	w, err := fsys.Create(ctx, path, true)
	if err != nil {
		return err
	}
	rng := util.NewSplitMix64(7)
	var sb strings.Builder
	written := int64(0)
	for written < size {
		sb.Reset()
		n := 4 + rng.Intn(9)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(apps.Words[rng.Intn(len(apps.Words))])
		}
		sb.WriteByte('\n')
		c, err := io.WriteString(w, sb.String())
		if err != nil {
			w.Close()
			return err
		}
		written += int64(c)
	}
	return w.Close()
}

// head prints up to n lines of a file.
func head(ctx context.Context, fsys fs.FileSystem, path string, n int) error {
	r, err := fsys.Open(ctx, path)
	if err != nil {
		return err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i, line := range lines {
		if i >= n {
			fmt.Printf("... (%d more lines)\n", len(lines)-n)
			break
		}
		fmt.Println(line)
	}
	return nil
}
