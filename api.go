// Package blobseer is a from-scratch Go reproduction of BlobSeer, the
// concurrency-optimized versioning data store of Nicolae, Moise,
// Antoniu, Bougé and Dorier: "BlobSeer: Bringing High Throughput under
// Heavy Concurrency to Hadoop Map-Reduce Applications" (IPDPS 2010) —
// together with every system the paper's evaluation depends on: the
// BSFS file-system layer, an HDFS-like baseline, a Hadoop-like
// Map/Reduce engine, and a simulated Grid'5000 testbed for reproducing
// the paper's figures at 270-node scale.
//
// This facade re-exports the embedded-cluster entry points and client
// types a downstream application needs. The quickest start:
//
//	cl, _ := blobseer.Start(blobseer.Config{DataProviders: 4})
//	defer cl.Stop()
//	fs, _ := cl.NewBSFS("")
//	w, _ := fs.Create(ctx, "/hello", true)
//	w.Write([]byte("versioned, concurrent, lock-free"))
//	w.Close()
//
// See examples/ for complete programs and cmd/figures for the
// experiment harness.
package blobseer

import (
	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/fs"
	"blobseer/internal/hdfs"
	"blobseer/internal/mapred"
	"blobseer/internal/mapred/apps"
	"blobseer/internal/placement"
	"blobseer/internal/stream"
)

// Core data-model types.
type (
	// BlobID identifies a BLOB.
	BlobID = blob.ID
	// Version identifies a snapshot of a BLOB.
	Version = blob.Version
	// BlobMeta is a blob's static configuration.
	BlobMeta = blob.Meta
)

// Handle types — the primary client surface. A Blob (from
// Client.OpenBlob or Client.CreateBlob) pins a BLOB's static metadata
// and owns writes, appends and version queries; a Snapshot (from
// Blob.Latest or Blob.Snapshot) pins one published (version, size)
// pair and serves zero-copy io.ReaderAt reads plus streaming readers,
// with no per-call metadata round-trips.
type (
	// Blob is a handle on one BLOB.
	Blob = core.Blob
	// Snapshot is a pinned, immutable published version of a BLOB; it
	// implements io.ReaderAt.
	Snapshot = core.Snapshot
	// Location describes where one piece of a blob range physically
	// lives.
	Location = core.Location
	// ReaderOptions tunes Snapshot.NewReader streaming (readahead).
	ReaderOptions = core.ReaderOptions
	// WriterOptions tunes Blob.NewWriter streaming (write-behind).
	WriterOptions = core.WriterOptions
	// StreamReader is the sequential snapshot reader of the shared
	// streaming engine (what Snapshot.NewReader and BSFS Open return).
	StreamReader = stream.Reader
	// StreamWriter is the write-behind blob writer of the shared
	// streaming engine (what Blob.NewWriter and BSFS Create return).
	StreamWriter = stream.Writer
	// ReadStats counts a stream reader's pipeline activity.
	ReadStats = stream.ReadStats
)

// Error taxonomy, re-exported so applications can errors.Is against
// the facade alone.
var (
	// ErrNotPublished: a read named a version newer than the latest
	// published snapshot.
	ErrNotPublished = core.ErrNotPublished
	// ErrNegativeOffset: ReadAt was handed an offset below zero.
	ErrNegativeOffset = core.ErrNegativeOffset
	// ErrNotFound: no such file or directory.
	ErrNotFound = fs.ErrNotFound
	// ErrExists: Create without overwrite hit an existing file.
	ErrExists = fs.ErrExists
	// ErrIsDir / ErrNotDir / ErrNotEmpty: namespace shape mismatches.
	ErrIsDir    = fs.ErrIsDir
	ErrNotDir   = fs.ErrNotDir
	ErrNotEmpty = fs.ErrNotEmpty
	// ErrNoAppend: the storage layer cannot append (HDFS, Section V-F).
	ErrNoAppend = fs.ErrNoAppend
	// ErrClosed matches any operation on a closed stream handle;
	// ErrReaderClosed and ErrWriterClosed are its two specific sides.
	ErrClosed       = stream.ErrClosed
	ErrReaderClosed = stream.ErrReaderClosed
	ErrWriterClosed = stream.ErrWriterClosed
)

// Deployment types.
type (
	// Config describes a BlobSeer deployment.
	Config = cluster.Config
	// Cluster is a running in-process BlobSeer deployment.
	Cluster = cluster.BlobSeer
	// HDFSConfig describes the HDFS-like baseline deployment.
	HDFSConfig = cluster.HDFSConfig
	// HDFSCluster is a running baseline deployment.
	HDFSCluster = cluster.HDFS
	// MapRedConfig describes a Map/Reduce deployment.
	MapRedConfig = cluster.MapRedConfig
	// MapRedCluster is a running Map/Reduce deployment.
	MapRedCluster = cluster.MapRed
)

// Client and file-system types.
type (
	// Client is the low-level BlobSeer client (BLOB API).
	Client = core.Client
	// BSFS is the BlobSeer File System client.
	BSFS = bsfs.FS
	// HDFS is the baseline file-system client.
	HDFS = hdfs.FS
	// FileSystem is the storage-neutral API Map/Reduce runs on.
	FileSystem = fs.FileSystem
	// FileStatus describes a file or directory.
	FileStatus = fs.FileStatus
	// BlockLocation exposes physical data layout for scheduling.
	BlockLocation = fs.BlockLocation
	// JobConf describes a Map/Reduce job.
	JobConf = mapred.JobConf
	// JobStatus is a Map/Reduce job's progress snapshot.
	JobStatus = mapred.JobStatus
)

// NoVersion is the version of the empty initial snapshot; passing it to
// read APIs selects the latest published snapshot.
const NoVersion = blob.NoVersion

// Names of the Map/Reduce applications shipped with the engine
// (Section V-G plus the classic wordcount); importing this package
// registers all of them.
const (
	AppRandomTextWriter = apps.RandomTextWriterApp
	AppGrep             = apps.GrepApp
	AppWordCount        = apps.WordCountApp
)

// Job states reported by JobStatus.
const (
	JobRunning   = mapred.JobRunning
	JobSucceeded = mapred.JobSucceeded
	JobFailed    = mapred.JobFailed
)

// Start deploys a complete BlobSeer instance (version manager, provider
// manager, namespace manager, data and metadata providers) inside this
// process.
func Start(cfg Config) (*Cluster, error) { return cluster.StartBlobSeer(cfg) }

// StartHDFS deploys the HDFS-like baseline (namenode + datanodes).
func StartHDFS(cfg HDFSConfig) (*HDFSCluster, error) { return cluster.StartHDFS(cfg) }

// StartMapRed deploys a jobtracker and tasktrackers over any storage
// layer.
func StartMapRed(cfg MapRedConfig) (*MapRedCluster, error) { return cluster.StartMapRed(cfg) }

// Placement strategies, exported for deployment configuration.
var (
	// NewRoundRobin is BlobSeer's default balanced placement.
	NewRoundRobin = placement.NewRoundRobin
	// NewRandom places blocks uniformly at random.
	NewRandom = placement.NewRandom
	// NewRandomSticky models HDFS 0.20's clustering placement.
	NewRandomSticky = placement.NewRandomSticky
	// NewLeastLoaded greedily fills the emptiest provider.
	NewLeastLoaded = placement.NewLeastLoaded
)
