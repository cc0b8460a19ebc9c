// Package mapred is the Hadoop-like Map/Reduce engine of the
// reproduction (Section II-B): a jobtracker scheduling map and reduce
// tasks over tasktrackers, with data-locality-aware placement driven by
// the storage layer's getFileBlockLocations — the affinity scheduling
// whose storage-side support Section IV-C describes. It runs unmodified
// over either BSFS or the HDFS-like baseline, which is exactly how the
// paper swaps storage layers under Hadoop.
package mapred

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"blobseer/internal/fs"
	"blobseer/internal/wire"
)

// JobConf describes one Map/Reduce job.
type JobConf struct {
	Name       string
	App        string            // registered application name
	Args       map[string]string // application parameters
	InputPaths []string          // ignored by apps with synthetic splits
	OutputDir  string
	NumReduces int // 0 = map-only job (outputs written by mappers)
	// SharedOutput makes every reducer append to one shared output file
	// instead of writing part-r-NNNNN files — the concurrent-append
	// improvement Section V-F proposes. Requires a storage layer with
	// append support (BSFS); the engine falls back to per-reducer files
	// when the layer refuses.
	SharedOutput bool
	// InputVersion pins every input file to one published snapshot
	// (Section VI-A: a workflow stage reads a frozen dataset while
	// another stage keeps writing it). 0 reads the latest contents.
	// Requires a storage layer implementing fs.SnapshotReader (BSFS).
	InputVersion uint64
	MaxAttempts  int // per-task retry budget (default 3)
}

func (c *JobConf) fill() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
}

// Emit publishes one intermediate or output pair.
type Emit func(key, value string) error

// Record is one input record (for text input: byte offset and line).
type Record struct {
	Key   string
	Value string
}

// Mapper processes records of one split.
type Mapper interface {
	Map(ctx context.Context, rec Record, emit Emit) error
}

// Reducer folds all values of one key.
type Reducer interface {
	Reduce(ctx context.Context, key string, values []string, emit Emit) error
}

// Split is one unit of map work. Either a file range (with locality
// hints) or a synthetic split for generator apps like RandomTextWriter.
type Split struct {
	Path      string
	Off       int64
	Len       int64
	Hosts     []string
	Synthetic bool
	SynthSeq  int   // index of the synthetic split
	SynthSize int64 // bytes the generator should produce
}

// App is a registered Map/Reduce application. The engine runs inside
// one binary, so applications register factories by name instead of
// shipping jars.
type App struct {
	// NewMapper builds the mapper for a job (required).
	NewMapper func(conf *JobConf) (Mapper, error)
	// NewReducer builds the reducer (nil for map-only apps).
	NewReducer func(conf *JobConf) (Reducer, error)
	// MakeSplits overrides input splitting (nil = block-aligned text
	// splits over conf.InputPaths).
	MakeSplits func(ctx context.Context, fsys fs.FileSystem, conf *JobConf) ([]Split, error)
}

var (
	appsMu sync.RWMutex
	apps   = map[string]*App{}
)

// RegisterApp installs an application under name (panics on duplicates,
// mirroring net/http's mux registration).
func RegisterApp(name string, app *App) {
	appsMu.Lock()
	defer appsMu.Unlock()
	if _, dup := apps[name]; dup {
		panic(fmt.Sprintf("mapred: duplicate app %q", name))
	}
	apps[name] = app
}

// LookupApp fetches a registered application.
func LookupApp(name string) (*App, error) {
	appsMu.RLock()
	defer appsMu.RUnlock()
	app, ok := apps[name]
	if !ok {
		return nil, fmt.Errorf("mapred: unknown app %q", name)
	}
	return app, nil
}

// KV is one intermediate pair.
type KV struct {
	Key   string
	Value string
}

// encodeKVs serializes intermediate pairs for shuffle transfer.
func encodeKVs(kvs []KV) []byte {
	b := wire.NewBuffer(16 * len(kvs))
	b.U32(uint32(len(kvs)))
	for _, kv := range kvs {
		b.String(kv.Key)
		b.String(kv.Value)
	}
	return b.Bytes()
}

// decodeKVs parses shuffle data.
func decodeKVs(data []byte) ([]KV, error) {
	r := wire.NewReader(data)
	n := r.U32()
	if r.Err() != nil || n > uint32(len(data)) {
		return nil, fmt.Errorf("mapred: corrupt shuffle segment")
	}
	out := make([]KV, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, KV{Key: r.String(), Value: r.String()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// partitionOf implements the default hash partitioner.
func partitionOf(key string, numReduces int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(numReduces))
}

// sortKVs orders pairs by key (stable so equal keys keep map order).
func sortKVs(kvs []KV) {
	sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}

// TextSplits produces block-aligned splits with locality hints for the
// given input files — Hadoop's FileInputFormat: one split per storage
// block, so one mapper per 64 MB chunk (Section V-G). A nonzero
// version pins the split computation (and later the record readers) to
// that published snapshot of every input file; the directory structure
// itself is read at its current state.
func TextSplits(ctx context.Context, fsys fs.FileSystem, paths []string, version uint64) ([]Split, error) {
	var out []Split
	for _, p := range paths {
		st, err := fsys.Stat(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("mapred: stat input %s: %w", p, err)
		}
		if st.IsDir {
			children, err := fsys.List(ctx, p)
			if err != nil {
				return nil, err
			}
			var sub []string
			for _, ch := range children {
				if !ch.IsDir && !strings.HasPrefix(fs.Base(ch.Path), "_") {
					sub = append(sub, ch.Path)
				}
			}
			splits, err := TextSplits(ctx, fsys, sub, version)
			if err != nil {
				return nil, err
			}
			out = append(out, splits...)
			continue
		}
		if version > 0 {
			// The pinned snapshot's size, not the current one, bounds
			// the splits.
			r, err := openInput(ctx, fsys, p, version)
			if err != nil {
				return nil, err
			}
			st.Size, err = r.Seek(0, io.SeekEnd)
			r.Close()
			if err != nil {
				return nil, err
			}
		}
		if st.Size == 0 {
			continue
		}
		bs := fsys.BlockSize()
		locs, err := fsys.Locations(ctx, p, 0, st.Size)
		if err != nil {
			return nil, fmt.Errorf("mapred: locations of %s: %w", p, err)
		}
		hostsAt := func(off int64) []string {
			for _, l := range locs {
				if off >= l.Off && off < l.Off+l.Len {
					return l.Hosts
				}
			}
			return nil
		}
		for off := int64(0); off < st.Size; off += bs {
			ln := bs
			if off+ln > st.Size {
				ln = st.Size - off
			}
			out = append(out, Split{Path: p, Off: off, Len: ln, Hosts: hostsAt(off)})
		}
	}
	return out, nil
}

// lineReader yields the records of a text split: Hadoop's
// LineRecordReader semantics — a split owns every line that *starts*
// inside it; a split with Off > 0 skips the first (partial) line, and
// the last line is read across the split boundary.
type lineReader struct {
	r     fs.Reader
	split Split
	pos   int64 // file offset of the next unread byte
	buf   []byte
	eof   bool
}

// openInput opens an input file, pinned to a snapshot when version is
// nonzero. Storage layers without versioning reject pinned opens.
func openInput(ctx context.Context, fsys fs.FileSystem, path string, version uint64) (fs.Reader, error) {
	if version == 0 {
		return fsys.Open(ctx, path)
	}
	sr, ok := fsys.(fs.SnapshotReader)
	if !ok {
		return nil, fmt.Errorf("mapred: input version %d requested but %s has no snapshot support", version, fsys.Name())
	}
	return sr.OpenVersion(ctx, path, version)
}

func newLineReader(ctx context.Context, fsys fs.FileSystem, split Split, version uint64) (*lineReader, error) {
	r, err := openInput(ctx, fsys, split.Path, version)
	if err != nil {
		return nil, err
	}
	lr := &lineReader{r: r, split: split, pos: split.Off}
	if split.Off > 0 {
		// Hadoop's LineRecordReader convention: back up one byte and
		// discard through the first newline. If the byte before the
		// split was itself a newline, this consumes exactly that byte
		// and the split's first full line is preserved; otherwise the
		// partial line (owned by the previous split) is skipped.
		lr.pos = split.Off - 1
		if _, err := r.Seek(lr.pos, 0); err != nil {
			r.Close()
			return nil, err
		}
		if _, _, err := lr.nextLine(); err != nil && err != errEOF {
			r.Close()
			return nil, err
		}
	}
	return lr, nil
}

// nextLine returns the next line (without the newline) and its start
// offset. io.EOF-style end is signaled with ok == false.
func (lr *lineReader) nextLine() (string, int64, error) {
	start := lr.pos
	for {
		if i := bytes.IndexByte(lr.buf, '\n'); i >= 0 {
			line := string(lr.buf[:i])
			lr.buf = lr.buf[i+1:]
			lr.pos += int64(i + 1)
			return line, start, nil
		}
		if lr.eof {
			if len(lr.buf) == 0 {
				return "", start, errEOF
			}
			line := string(lr.buf)
			lr.pos += int64(len(lr.buf))
			lr.buf = nil
			return line, start, nil
		}
		chunk := make([]byte, 64*1024)
		n, err := lr.r.Read(chunk)
		lr.buf = append(lr.buf, chunk[:n]...)
		if err != nil {
			lr.eof = true
		}
	}
}

// next returns the next record owned by this split.
func (lr *lineReader) next() (Record, bool, error) {
	if lr.pos >= lr.split.Off+lr.split.Len {
		return Record{}, false, nil // lines starting past the split end belong to the next split
	}
	line, start, err := lr.nextLine()
	if err == errEOF {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, err
	}
	return Record{Key: fmt.Sprintf("%d", start), Value: line}, true, nil
}

func (lr *lineReader) close() error { return lr.r.Close() }

var errEOF = fmt.Errorf("mapred: end of split")
