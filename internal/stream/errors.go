// Package stream is the shared streaming engine of the BSFS layer
// (Section IV-B), factored out so every consumer of BlobSeer data —
// the BSFS file system, the HDFS-comparison harness, raw-blob
// applications through core.Snapshot/core.Blob handles — runs on one
// implementation of sequential-access detection, bounded asynchronous
// readahead and write-behind block commits.
//
// The package is storage-agnostic: a Reader pulls data through a Fetch
// function over a pinned immutable snapshot, and a Writer pushes
// full-block commits through WriteAt/Append hooks, and may end runs of
// them through EndRun. core wires these to Snapshot.ReadAt, to a run's
// block puts and publish, and to Blob.Append; tests wire them to
// in-memory backends.
//
// A Reader's background fetch is a record (blockLoad) and a block
// buffer. The record is the reader's: made the first time the window
// needs one more, reused after that. A fetch takes a record from the
// reader's idle list and a buffer from wire.GetBuf, and runs on a
// goroutine under the window's context, which all the window's fetches
// share. When the fetch finishes, the record stays in the window until
// a Read consumes it: the buffer becomes the reader's cached block. A
// Seek can drop it from the window instead, and then the buffer goes
// back to wire. The record goes back to the idle list once three things
// hold: its goroutine has finished, it has left the window, and no Read
// is waiting on it. A block fetched this way allocates only its
// goroutine's closure. Only a Seek or Close that cancels the window
// while a fetch runs makes the next fetch build a new context.
package stream

import "errors"

// Errors shared by all streaming handles.
var (
	// ErrClosed is the shared sentinel for any operation on a closed
	// handle; ErrReaderClosed and ErrWriterClosed both match it under
	// errors.Is, so callers that don't care which side was closed can
	// test the one sentinel.
	ErrClosed = errors.New("stream: handle is closed")
	// ErrReaderClosed is returned by Read/Seek on a closed reader.
	ErrReaderClosed error = &closedError{"reader"}
	// ErrWriterClosed is returned by Write on a closed writer.
	ErrWriterClosed error = &closedError{"writer"}
)

// closedError gives reader/writer-specific messages while remaining
// errors.Is-compatible with the shared ErrClosed sentinel.
type closedError struct{ what string }

func (e *closedError) Error() string        { return "stream: " + e.what + " is closed" }
func (e *closedError) Is(target error) bool { return target == ErrClosed }
