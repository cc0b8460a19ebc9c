// Command bsfsctl is a client CLI for a running BSFS deployment (see
// cmd/blobseerd for launching one). It speaks to the version manager,
// provider manager, namespace manager and metadata DHT over TCP and
// exercises the same client stack Hadoop would:
//
//	bsfsctl [conn flags] mkdir /data
//	bsfsctl [conn flags] put local.bin /data/input
//	bsfsctl [conn flags] ls /data
//	bsfsctl [conn flags] stat /data/input
//	bsfsctl [conn flags] cat /data/input > copy.bin
//	bsfsctl [conn flags] append more.bin /data/input
//	bsfsctl [conn flags] versions /data/input
//	bsfsctl [conn flags] catv 2 /data/input      # read snapshot version 2
//	bsfsctl [conn flags] readat 4096 512 /data/input  # random-access read
//	bsfsctl [conn flags] locations /data/input   # block -> host map
//	bsfsctl [conn flags] cp -w 8 /data/input /data/input2   # parallel copy
//	bsfsctl [conn flags] prune 3 /data/input                # GC versions < 3
//	bsfsctl [conn flags] mv /data/input /data/old
//	bsfsctl [conn flags] rm -r /data
//	bsfsctl [conn flags] providers                # membership, liveness, repair backlog
//	bsfsctl [conn flags] decommission 127.0.0.1:7201  # drain, then retire
//	bsfsctl -metrics 127.0.0.1:9101 top           # rates and gauges, wal_* included
//	bsfsctl -metrics 127.0.0.1:9101,127.0.0.1:9102 profile 10s  # CPU share by role and method
//
// Connection flags:
//
//	-vmanager  comma-separated version manager shard addresses, shard
//	           order (default 127.0.0.1:7001)
//	-pmanager  provider manager address  (default 127.0.0.1:7002)
//	-namespace namespace manager address (default 127.0.0.1:7003)
//	-meta      comma-separated metadata provider addresses
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"time"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/node"
	"blobseer/internal/pmanager"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
	"blobseer/internal/util"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: bsfsctl [flags] <command> [args]

commands:
  ls <dir>                 list a directory
  mkdir <dir>              create a directory (and parents)
  put <local> <remote>     upload a local file
  get <remote> <local>     download to a local file
  cat <remote>             write file contents to stdout
  catv <version> <remote>  cat a pinned snapshot version
  readat <off> <len> <remote>  random-access read of the latest snapshot
  append <local> <remote>  append a local file's bytes
  rm [-r] <path>           delete a file or directory
  mv <src> <dst>           rename
  stat <path>              show size/type
  versions <path>          show the latest published version
  prune <keep> <path>      garbage-collect versions below <keep>
  cp [-w N] <src> <dst>    parallel server-side copy with N workers
  locations <path>         show the block->host layout
  providers                show provider membership, liveness and repair backlog
  decommission <addr>      drain a provider's blocks, then retire it
  top [interval [count]]   poll -metrics endpoints and show cluster-wide rates
  trace <trace-id>         stitch a distributed trace from every -metrics endpoint
  trace slow               list slow-sampled root operations across endpoints
  profile <duration>       profile every -metrics endpoint at once: CPU share by role and method

flags:
`)
	flag.PrintDefaults()
}

func main() {
	var (
		conn    = node.ConnFlags(flag.CommandLine)
		blockSz = flag.Int64("block-size", 64*util.MB, "striping unit for new files")
		repl    = flag.Int("replication", 1, "replication level for new files")
		host    = flag.String("host", "", "client host label (affinity experiments)")
		metEPs  = flag.String("metrics", "", "comma-separated /metrics endpoints (top, trace and profile commands)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	// top only talks HTTP to /metrics endpoints — no RPC stack needed.
	if flag.Arg(0) == "top" {
		args := flag.Args()[1:]
		interval := 2 * time.Second
		iters := 0
		if len(args) > 0 {
			d, err := time.ParseDuration(args[0])
			if err != nil {
				fatal(fmt.Errorf("top: bad interval %q", args[0]))
			}
			interval = d
		}
		if len(args) > 1 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				fatal(fmt.Errorf("top: bad count %q", args[1]))
			}
			iters = n
		}
		if err := runTop(node.SplitAddrs(*metEPs), interval, iters); err != nil {
			fatal(err)
		}
		return
	}

	// profile only talks HTTP to /debug/pprof endpoints.
	if flag.Arg(0) == "profile" {
		if err := runProfile(node.SplitAddrs(*metEPs), flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}

	// trace only talks HTTP to /trace endpoints — no RPC stack needed.
	if flag.Arg(0) == "trace" {
		if err := runTrace(node.SplitAddrs(*metEPs), flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}

	ep, err := conn()
	if err != nil {
		fatal(err)
	}
	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	clients := node.Connect(pool, ep)

	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]

	// The maintenance commands speak to the managers directly — no
	// file-system layer involved.
	switch cmd {
	case "providers", "decommission":
		if err := runAdmin(ctx, clients.PM(), clients.Repair(), cmd, args); err != nil {
			fatal(err)
		}
		return
	}

	fsys, err := clients.BSFS(clients.Core(*host), bsfs.Config{
		BlockSize:        *blockSz,
		Replication:      *repl,
		ReadaheadBlocks:  stream.DefaultReadahead,
		WriteBehindDepth: stream.DefaultWriteBehind,
	})
	if err != nil {
		fatal(err)
	}
	if err := run(ctx, fsys, cmd, args); err != nil {
		fatal(err)
	}
}

// runAdmin handles the membership/repair commands.
func runAdmin(ctx context.Context, pm *pmanager.Client, eng *repair.Engine, cmd string, args []string) error {
	switch cmd {
	case "providers":
		if len(args) != 0 {
			return fmt.Errorf("providers: no arguments expected")
		}
		infos, err := pm.List(ctx)
		if err != nil {
			return err
		}
		// One combined metadata walk: the repair work list (backlog) and
		// the inventory audit (strays) share the scan.
		tasks, orphans, err := eng.Status(ctx)
		if err != nil {
			return err
		}
		// Backlog per provider: blocks whose under-replication involves
		// this provider as a (possibly sole) remaining holder or source.
		backlog := make(map[string]int)
		for _, t := range tasks {
			for _, a := range t.Sources {
				backlog[a]++
			}
		}
		fmt.Printf("%-24s %-12s %8s %12s %6s %9s %8s %6s\n",
			"ADDRESS", "HOST", "BLOCKS", "BYTES", "ALIVE", "DRAINING", "BACKLOG", "STRAY")
		for _, in := range infos {
			fmt.Printf("%-24s %-12s %8d %12d %6v %9v %8d %6d\n",
				in.Addr, in.Host, in.Blocks, in.Bytes, in.Alive, in.Draining, backlog[in.Addr], orphans[in.Addr])
		}
		fmt.Printf("repair backlog: %d under-replicated block(s)\n", len(tasks))
		return nil

	case "decommission":
		if len(args) != 1 {
			return fmt.Errorf("decommission: want <provider-addr>")
		}
		rep, err := eng.Decommission(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("decommissioned %s: %d block(s) re-replicated (%d copies) in %s; provider retired\n",
			args[0], rep.UnderReplicated, rep.Copies, rep.Elapsed.Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("unknown admin command %q", cmd)
}

func run(ctx context.Context, fsys *bsfs.FS, cmd string, args []string) error {
	switch cmd {
	case "ls":
		if len(args) != 1 {
			return fmt.Errorf("ls: want <dir>")
		}
		sts, err := fsys.List(ctx, args[0])
		if err != nil {
			return err
		}
		for _, st := range sts {
			kind := "-"
			if st.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %12d  %s\n", kind, st.Size, st.Path)
		}
		return nil

	case "mkdir":
		if len(args) != 1 {
			return fmt.Errorf("mkdir: want <dir>")
		}
		return fsys.Mkdirs(ctx, args[0])

	case "put", "append":
		if len(args) != 2 {
			return fmt.Errorf("%s: want <local> <remote>", cmd)
		}
		in, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer in.Close()
		var w io.WriteCloser
		if cmd == "put" {
			w, err = fsys.Create(ctx, args[1], true)
		} else {
			w, err = fsys.Append(ctx, args[1])
		}
		if err != nil {
			return err
		}
		n, err := io.Copy(w, in)
		if err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d bytes -> %s\n", cmd, n, args[1])
		return nil

	case "get":
		if len(args) != 2 {
			return fmt.Errorf("get: want <remote> <local>")
		}
		r, err := fsys.Open(ctx, args[0])
		if err != nil {
			return err
		}
		defer r.Close()
		out, err := os.Create(args[1])
		if err != nil {
			return err
		}
		n, err := io.Copy(out, r)
		if err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("get: %d bytes -> %s\n", n, args[1])
		return nil

	case "cat":
		if len(args) != 1 {
			return fmt.Errorf("cat: want <remote>")
		}
		r, err := fsys.Open(ctx, args[0])
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(os.Stdout, r)
		return err

	case "catv":
		if len(args) != 2 {
			return fmt.Errorf("catv: want <version> <remote>")
		}
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("catv: bad version %q", args[0])
		}
		// OpenVersion IS the handle path now (Blob.Snapshot +
		// Snapshot.NewReader under the hood), with the default readahead.
		r, err := fsys.OpenVersion(ctx, args[1], v)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(os.Stdout, r)
		return err

	case "readat":
		if len(args) != 3 {
			return fmt.Errorf("readat: want <offset> <length> <remote>")
		}
		off, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("readat: bad offset %q", args[0])
		}
		length, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil || length < 0 {
			return fmt.Errorf("readat: bad length %q", args[1])
		}
		// Random access without a stream: one pinned snapshot, one
		// zero-copy ReadAt into a caller-owned buffer.
		b, err := fsys.OpenBlob(ctx, args[2])
		if err != nil {
			return err
		}
		s, err := b.Latest(ctx)
		if err != nil {
			return err
		}
		buf := make([]byte, length)
		n, err := s.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return err
		}
		_, werr := os.Stdout.Write(buf[:n])
		return werr

	case "rm":
		recursive := false
		if len(args) > 0 && args[0] == "-r" {
			recursive = true
			args = args[1:]
		}
		if len(args) != 1 {
			return fmt.Errorf("rm: want [-r] <path>")
		}
		return fsys.Delete(ctx, args[0], recursive)

	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("mv: want <src> <dst>")
		}
		return fsys.Rename(ctx, args[0], args[1])

	case "stat":
		if len(args) != 1 {
			return fmt.Errorf("stat: want <path>")
		}
		st, err := fsys.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		kind := "file"
		if st.IsDir {
			kind = "directory"
		}
		fmt.Printf("%s\t%s\t%d bytes\n", st.Path, kind, st.Size)
		return nil

	case "versions":
		if len(args) != 1 {
			return fmt.Errorf("versions: want <path>")
		}
		v, err := fsys.Versions(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: latest published version %d\n", args[0], v)
		return nil

	case "prune":
		if len(args) != 2 {
			return fmt.Errorf("prune: want <keep-version> <path>")
		}
		keep, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("prune: bad version %q", args[0])
		}
		st, err := fsys.Prune(ctx, args[1], blob.Version(keep))
		if err != nil {
			return err
		}
		fmt.Printf("pruned versions [%d, %d): freed %d metadata nodes, %d block replicas\n",
			st.From, st.To, st.NodesFreed, st.BlocksFreed)
		return nil

	case "cp":
		workers := 4
		if len(args) > 0 && args[0] == "-w" {
			if len(args) < 2 {
				return fmt.Errorf("cp: -w wants a worker count")
			}
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				return fmt.Errorf("cp: bad worker count %q", args[1])
			}
			workers = n
			args = args[2:]
		}
		if len(args) != 2 {
			return fmt.Errorf("cp: want [-w N] <src> <dst>")
		}
		if err := fsys.ParallelCopy(ctx, args[0], args[1], workers); err != nil {
			return err
		}
		st, err := fsys.Stat(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("cp: %d bytes -> %s (%d concurrent writers)\n", st.Size, args[1], workers)
		return nil

	case "locations":
		if len(args) != 1 {
			return fmt.Errorf("locations: want <path>")
		}
		st, err := fsys.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		locs, err := fsys.Locations(ctx, args[0], 0, st.Size)
		if err != nil {
			return err
		}
		for _, l := range locs {
			fmt.Printf("[%12d +%12d]  %s\n", l.Off, l.Len, strings.Join(l.Hosts, ","))
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bsfsctl: %v\n", err)
	os.Exit(1)
}
