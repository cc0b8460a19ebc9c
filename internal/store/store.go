// Package store provides the storage engines behind data providers and
// metadata providers. Backends are selected by URL through Open (see
// factory.go): a sharded in-memory store ("mem://", the default for
// experiments, mirroring the paper's RAM-resident providers), a
// file-backed store for durable deployments ("file:///dir?sync=1"). There
// is no hot tier over the file store: the OS page cache already keeps
// recently read blocks in memory.
// Every backend implements the full Store contract, so providers, the
// repair plane and GC run unchanged on any of them.
//
// Buffer ownership: a store never keeps a slice it was handed — Put and
// BlockWriter.WriteAt copy (callers recycle their buffers right after)
// — Get and GetRange return slices that are the caller's, and ReadAt
// fills caller memory and touches none of it past the count it returns.
// The reads a provider serves (ReadAt, Lend, LendFile, Size) take the
// key as bytes and keep none of them, so a caller writes each key into
// one buffer it reuses, and mem:// finds a block without allocating. The
// one exception runs the other way: what a Lender lends is still the
// store's, and read-only for ever.
package store

import (
	"errors"
	"os"
	"path/filepath"
)

// keyBytes is a key as either of its forms: a string, or bytes that the
// store reads during the call and keeps none of.
type keyBytes interface{ ~string | ~[]byte }

// ErrNotFound is returned when a key is absent.
var ErrNotFound = errors.New("store: key not found")

// Stats summarizes a store's contents: how many keys it holds and their
// values' total bytes.
type Stats struct {
	Items int64
	Bytes int64
}

// BlockWriter assembles one value from frames that may arrive in any
// order (the streaming data plane delivers a block's chunks as
// independent, pipelined RPCs). The value stays invisible to readers
// until Commit; Abort discards everything written so far. A writer is
// safe for concurrent use with other store operations, but individual
// WriteAt calls are serialized by the caller per writer.
//
// A writer is not used after Commit or Abort returns, nor finished
// twice: a backend may hand it to a later PutWriter (mem recycles
// its own).
type BlockWriter interface {
	// WriteAt stores p at byte offset off within the value.
	WriteAt(p []byte, off int64) error
	// Commit publishes the assembled value under the writer's key,
	// replacing any previous value. It ends the writer's use.
	Commit() error
	// Abort discards the partial value. It ends the writer's use.
	Abort() error
}

// Presizer is the optional interface of a BlockWriter that assembles
// its value in memory; callers type-assert for it. Presize(n), called
// before the first WriteAt, says the value will be n bytes, so that a
// value of many frames is allocated once at its size instead of grown
// frame by frame. A caller with one frame to write has no need of it.
type Presizer interface {
	Presize(n int64)
}

// Store is a flat key-value blob store with sub-range reads. Keys are
// opaque strings (block keys and metadata node identifiers serialize
// into them). Implementations are safe for concurrent use.
type Store interface {
	// Put stores val under key, replacing any previous value.
	Put(key string, val []byte) error
	// PutWriter opens a streaming writer for key: frames land via
	// WriteAt and the value becomes visible atomically on Commit.
	PutWriter(key string) (BlockWriter, error)
	// Get returns the full value (a copy) or ErrNotFound.
	Get(key string) ([]byte, error)
	// GetRange returns length bytes starting at off within the value.
	// Reads beyond the stored length are truncated; off past the end
	// yields an empty slice.
	GetRange(key string, off, length int64) ([]byte, error)
	// ReadAt is GetRange into the caller's memory: it copies up to
	// len(p) bytes at off within the value into p and returns the count,
	// short when the value ends first — not an error, unlike io.ReaderAt.
	// It keeps none of key. A zero-length ReadAt tells whether key is
	// stored: ErrNotFound, or a count of 0 and no error.
	ReadAt(key, p []byte, off int64) (int, error)
	// Delete removes key (no error if absent).
	Delete(key string) error
	// DeletePrefix removes all keys with the given prefix, returning
	// the number removed. Used by write-abort garbage collection.
	DeletePrefix(prefix string) (int, error)
	// Keys enumerates the stored keys with the given prefix ("" lists
	// everything), in no particular order. In-flight streaming writes
	// are invisible until Commit. This is the inventory primitive behind
	// provider block reports: the repair plane asks providers what they
	// actually hold rather than trusting allocation-time estimates.
	Keys(prefix string) ([]string, error)
	// Stats returns item/byte counts.
	Stats() Stats
	// Close releases resources.
	Close() error
}

// Lender is the optional interface of a backend that holds its values
// in memory and never modifies one in place; callers type-assert for it
// and fall back to ReadAt. Lend is GetRange by reference: the bytes as
// the store holds them, read-only for ever, and unchanged for as long as
// they are referenced, even once the key is overwritten or deleted. A
// provider sends them as a frame's byte tail (wire.Buffer.Attach). Lend
// keeps none of key.
type Lender interface {
	Lend(key []byte, off, length int64) ([]byte, error)
}

// FileLender is Lender for a backend that keeps each value in a file
// replaced only by rename (file://): LendFile opens key's file and clamps
// the range like GetRange, lending the n bytes at max(off, 0). The caller
// closes the file — a provider hands it to a frame as a file tail
// (wire.Buffer.AttachFile) — and its bytes outlive an overwrite or delete
// of the key, neither of which touches an open file. LendFile keeps
// none of key.
type FileLender interface {
	LendFile(key []byte, off, length int64) (f *os.File, n int64, err error)
}

// FileNamer is the optional interface of a backend that keeps each value
// whole in a file of one directory, named by AppendFileName, and replaces
// a file only by rename (file://). A process on the same host that may
// read the directory reads a value from its file itself: Size says how
// long the value is, and the file may be gone by the time it is opened.
type FileNamer interface {
	// Dir returns the directory, absolute and clean, and its device and
	// inode numbers (DirID's).
	Dir() (dir string, dev, ino uint64)
	// Size returns the length of key's value from one look at its file
	// that allocates nothing, or ErrNotFound. It keeps none of key.
	Size(key []byte) (int64, error)
}

// AppendFileName appends to b the name of key's file in dir, a
// FileNamer's directory: dir, a separator and the key's hex encoding,
// then a NUL, which ends the name for the system calls ReadFileAt makes.
func AppendFileName[K keyBytes](b []byte, dir string, key K) []byte {
	const digits = "0123456789abcdef"
	b = append(b, dir...)
	if len(dir) == 0 || !os.IsPathSeparator(dir[len(dir)-1]) {
		b = append(b, filepath.Separator)
	}
	for i := 0; i < len(key); i++ {
		b = append(b, digits[key[i]>>4], digits[key[i]&0xf])
	}
	return append(b, 0)
}

// Pair is one key/value of a BatchPutter's batch, both still the caller's.
type Pair struct {
	Key, Val []byte
}

// BatchPutter is the optional interface of a backend that stores many
// pairs for less than a Put each; callers type-assert for it and fall
// back to Put per pair. PutBatch is that loop's contract — every pair
// stored, a later pair of the same key winning — with the copies made in
// bulk, so the batch's pairs may share their memory until the last of
// them is overwritten or deleted.
type BatchPutter interface {
	PutBatch(pairs []Pair) error
}

// clampRange cuts [off, off+length) to a value of valLen bytes; length < 0
// reads to the end. It never adds off and length, which may overflow.
func clampRange(valLen, off, length int64) (int64, int64) {
	if off < 0 {
		off = 0
	}
	if off >= valLen {
		return valLen, 0
	}
	if length < 0 || length > valLen-off {
		length = valLen - off
	}
	return off, length
}
