// Package fs defines the storage-neutral file-system interface the
// Map/Reduce engine is written against — the Go equivalent of the
// Hadoop FileSystem API of Section IV. Both BSFS (BlobSeer-backed) and
// the HDFS-like baseline implement it, which is exactly how the paper
// swaps storage layers under an unmodified Hadoop.
package fs

import (
	"context"
	"io"
	"strings"

	"blobseer/internal/rpc"
	"blobseer/internal/stream"
)

// Errors shared by all implementations, each with its RPC status code
// (40-46), so that clients of the BSFS namespace manager and of the
// HDFS-like namenode match the same sentinels across the wire.
var (
	ErrNotFound = rpc.CodedError(40, "fs: no such file or directory")
	ErrExists   = rpc.CodedError(41, "fs: file already exists")
	ErrIsDir    = rpc.CodedError(42, "fs: is a directory")
	ErrNotDir   = rpc.CodedError(43, "fs: not a directory")
	ErrNotEmpty = rpc.CodedError(44, "fs: directory not empty")
	ErrNoAppend = rpc.CodedError(45, "fs: append not supported by this file system")
	// ErrBusy is returned when a file is already held by another writer
	// (the HDFS-like baseline enforces single-writer semantics).
	ErrBusy = rpc.CodedError(46, "fs: file is open by another writer")

	// ErrClosed is the shared sentinel for any operation on a closed
	// handle; ErrReaderClosed and ErrWriterClosed both match it under
	// errors.Is, so callers that don't care which side was closed can
	// test the one sentinel. The sentinels live in the shared stream
	// engine (BSFS readers/writers ARE stream readers/writers); these
	// aliases keep the historical fs-level names working.
	ErrClosed = stream.ErrClosed
	// ErrReaderClosed is returned by Read/Seek on a closed reader.
	ErrReaderClosed = stream.ErrReaderClosed
	// ErrWriterClosed is returned by Write on a closed writer.
	ErrWriterClosed = stream.ErrWriterClosed
)

// FileStatus describes one namespace entry.
type FileStatus struct {
	Path  string
	Size  int64
	IsDir bool
}

// BlockLocation tells the scheduler where one block of a file range
// lives (Hadoop's getFileBlockLocations).
type BlockLocation struct {
	Off   int64
	Len   int64
	Hosts []string
}

// Reader is a sequential, seekable file reader.
type Reader interface {
	io.Reader
	io.Seeker
	io.Closer
}

// Writer is a sequential file writer; data becomes visible to readers
// at the implementation's commit granularity and durably at Close.
type Writer interface {
	io.Writer
	io.Closer
}

// FileSystem is the storage API used by applications and the
// Map/Reduce engine.
type FileSystem interface {
	// Create opens a new file for writing. Parent directories are
	// created implicitly. If overwrite is false and the file exists,
	// Create fails with ErrExists.
	Create(ctx context.Context, path string, overwrite bool) (Writer, error)
	// Open returns a reader over the file's current contents. The
	// snapshot seen is fixed at open time.
	Open(ctx context.Context, path string) (Reader, error)
	// Append opens an existing file for appending. Implementations
	// without append support return ErrNoAppend (HDFS, Section V-F).
	Append(ctx context.Context, path string) (Writer, error)
	// Stat describes a file or directory.
	Stat(ctx context.Context, path string) (FileStatus, error)
	// List enumerates a directory.
	List(ctx context.Context, path string) ([]FileStatus, error)
	// Mkdirs creates a directory and any missing parents.
	Mkdirs(ctx context.Context, path string) error
	// Delete removes a file, or a directory (recursively if asked).
	Delete(ctx context.Context, path string, recursive bool) error
	// Rename moves a file or directory.
	Rename(ctx context.Context, src, dst string) error
	// Locations exposes the physical data layout of a file range for
	// affinity scheduling.
	Locations(ctx context.Context, path string, off, length int64) ([]BlockLocation, error)
	// BlockSize returns the chunking granularity (64 MB in the paper).
	BlockSize() int64
	// Name identifies the implementation ("bsfs", "hdfs").
	Name() string
}

// SnapshotReader is the optional versioning capability of a storage
// layer (Section VI-A): every write publishes an immutable snapshot,
// and OpenVersion reads one by number. BSFS implements it; the
// HDFS-like baseline does not. Callers probe with a type assertion.
type SnapshotReader interface {
	// OpenVersion returns a reader pinned to the given published
	// snapshot version of the file.
	OpenVersion(ctx context.Context, path string, version uint64) (Reader, error)
}

// Clean canonicalizes a path: leading slash, no trailing slash, no
// empty or dot segments. The root is "/".
func Clean(path string) string {
	parts := Split(path)
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// Split returns the non-empty segments of a path.
func Split(path string) []string {
	raw := strings.Split(path, "/")
	out := make([]string, 0, len(raw))
	for _, s := range raw {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return out
}

// Parent returns the parent directory of a cleaned path ("/" for
// top-level entries and the root itself).
func Parent(path string) string {
	parts := Split(path)
	if len(parts) <= 1 {
		return "/"
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/")
}

// Base returns the last segment of the path ("" for the root).
func Base(path string) string {
	parts := Split(path)
	if len(parts) == 0 {
		return ""
	}
	return parts[len(parts)-1]
}
