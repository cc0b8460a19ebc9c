package main

import "slices"

// The metric names and units, in the order they print. BENCHMARK.json
// at the repository root declares the same sets (with direction and,
// for end-to-end metrics, the regression bound); the smoke test keeps
// the two from drifting apart.

type metricDef struct{ name, unit string }

// endToEndMetrics is what --trace 0 reports, on every workload.
var endToEndMetrics = []metricDef{
	{"primary_mb_s", "MB/s"},
	{"secondary_mb_s", "MB/s"},
	{"cpu_s_per_gb", "s/GB"},
	{"alloc_bytes_per_payload_byte", "B/B"},
	{"allocs_per_mb", "1/MB"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// tracedMetrics come from the workload's own traced pass: seam
// decorators, counters the services export, and calls the harness
// times. A metric whose layer the workload does not exercise reads 0.
var tracedMetrics = []metricDef{
	{"rpc.client_tx_bytes_per_payload_byte", "B/B"},
	{"rpc.conn_write_s_per_gb", "s/GB"},
	{"provider.bytes_in_per_payload_byte", "B/B"},
	{"provider.bytes_out_per_payload_byte", "B/B"},
	{"store.busy_s_per_gb", "s/GB"},
	{"stream.readahead_hit_ratio", "ratio"},
	{"stream.write_call_tail_us", "us"},
	{"namespace.create_ms", "ms"},
	{"namespace.open_ms", "ms"},
	{"vmanager.rpcs_per_op", "1/op"},
	{"mdtree.nodes_written_per_op", "1/op"},
	{"mdtree.store_busy_s_per_gb", "s/GB"},
	{"dht.get_batch_roundtrips_per_op", "1/op"},
	{"core.meta_cache_hit_ratio", "ratio"},
	{"core.chain_fallbacks", "count"},
	{"core.append_p50_ms", "ms"},
	{"core.append_tail_ms", "ms"},
	{"core.write_p50_ms", "ms"},
	{"core.write_tail_ms", "ms"},
	{"core.readat_p50_ms", "ms"},
	{"core.readat_tail_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// probeMetrics come from the isolated probes, which do not depend on
// the workload: they run once, in probeWorkload's traced run, and read
// 0 in the other workloads' result lines.
var probeMetrics = []metricDef{
	{"wire.frame_roundtrip_us_1m", "us"},
	{"wire.frame_alloc_bytes_per_payload_byte", "B/B"},
	{"rpc.echo_us_64b", "us"},
	{"rpc.echo_us_1m", "us"},
	{"rpc.echo_alloc_bytes_per_payload_byte_1m", "B/B"},
	{"rpc.conn_writes_per_frame", "count"},
	{"provider.put_us_1m", "us"},
	{"provider.put_chained_us_1m_r3", "us"},
	{"provider.get_us_1m", "us"},
	{"provider.get_alloc_bytes_per_payload_byte", "B/B"},
	{"store.mem.put_us_1m", "us"},
	{"store.mem.put_writer_us_1m", "us"},
	{"store.mem.get_range_us_1m", "us"},
	{"store.file.put_us_1m", "us"},
	{"store.file.get_range_us_1m", "us"},
	{"vmanager.assign_commit_us", "us"},
	{"wal.append_sync_us", "us"},
	{"wal.records_per_fsync", "count"},
	{"mdtree.build_us_per_block", "us"},
	{"mdtree.resolve_us_cold", "us"},
	{"mdtree.resolve_us_warm", "us"},
	{"dht.put_batch_us_16", "us"},
	{"dht.get_batch_us_16", "us"},
	{"hdfs.write_mb_s", "MB/s"},
	{"hdfs.bsfs_write_ratio", "ratio"},
}

// probeWorkload is the workload whose traced run hosts the probes: the
// paired HDFS probe is seq_write's own write phase.
const probeWorkload = "seq_write"

// perLayerMetrics is what --trace 1 reports.
var perLayerMetrics = slices.Concat(tracedMetrics, probeMetrics)
