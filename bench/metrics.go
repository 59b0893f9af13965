package main

import (
	"fmt"
	"io"
	"strings"
)

// Workload names, in run order.
const (
	wlOranges = "oranges_sparse"
	wlDense   = "dense_churn"
	wlRead    = "restore_read"
	wlMulti   = "multi_writer"
)

// workloadWhy is the one-line rationale of each workload, mirrored in
// BENCHMARK.json and bench/README.md.
var workloadWhy = []struct{ Name, Why string }{
	{wlOranges, "the paper's ORANGES GDV chain: ~25 KB diffs, so dedup hashing and the fixed per-push cost (round trip, fsyncs, lineage lock) dominate"},
	{wlDense, "6% of an 8 MiB buffer rewritten per step: ~1 MB diffs, so gather/encode, wire bytes, FileStore intake and blockstore interning dominate per byte"},
	{wlRead, "a preloaded 128-diff chain read back by fresh Dial+Pull+Restore(k): shows a write-path gain that costs reads"},
	{wlMulti, "nproc writers with a shared buffer half drain 16-diff batches: streaming push, group commit and blockstore dedup hits under contention"},
}

// metricDef names one reported number. The table below is the single
// source the run, -list, -compare and the BENCHMARK.json consistency
// test read.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median an end-to-end metric
	// may worsen by before -compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64
	// Layer marks a per-layer metric (reported by the traced run).
	Layer bool
	// Exact marks a count that repeats exactly at a fixed seed.
	Exact bool
	// Driver marks an end-to-end metric BENCHMARK.json gates on: it
	// exists on every workload, is never 0, and its run-to-run spread
	// on the gating sandbox stays inside its bound.
	Driver bool
	// Demoted marks an end-to-end metric that every run still reports
	// and -compare still judges, but whose spread on the gating sandbox
	// exceeds the widest bound the driver allows (see README "Noise").
	// BENCHMARK.json lists it under per_layer, where nothing is gated.
	Demoted bool
	// On lists the workloads an end-to-end metric exists on (nil: all).
	On  []string
	Doc string
}

var chainOnly = []string{wlOranges, wlDense}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true,
		Doc: "per-rep set-up before the first timed op: fresh roots, primary (+standby) start, dial, Checkpointer, base image, preload"},
	{Name: "ckpt_gbps", Unit: "GB/s", Better: "higher", Bound: 0.25, Demoted: true,
		Doc: "buffer length / median wall of Checkpointer.Checkpoint (one worker), k >= 1"},
	{Name: "push_ack_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Demoted: true,
		Doc: "median wall of one PushCheckpointer call until the durable ack, k >= 1 (a 16-diff batch on multi_writer, the whole preload stream on restore_read)"},
	{Name: "durable_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25, Demoted: true,
		Doc: "user bytes protected / busy wall (Checkpoint + push walls) from the first Checkpoint call to the last durable ack, baseline included"},
	{Name: "replica_lag_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: chainOnly,
		Doc: "push-call start -> standby OnApply (durable on the mirror)"},
	{Name: "restore_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Demoted: true,
		Doc: "fresh Dial + Pull + Restore(k) + digest compare, keep-all chain"},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.03, Exact: true, Driver: true,
		Doc: "bytes of every file under the primary root after the last ack / user bytes"},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05, Driver: true,
		Doc: "runtime TotalAlloc delta over the measured phase / ops (client + server + standby, one process)"},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower", Bound: 0,
		Doc: "ops that errored or failed byte-exact verification / ops attempted (also the result line's failed/attempted)"},
}

func layer(name, unit, better string, exact bool, doc string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: true, Exact: exact, Doc: doc}
}

var perLayer = []metricDef{
	layer("murmur3.sum128_gbps", "GB/s", "higher", false, "every chunk of the replayed images, one goroutine"),
	layer("parallel.hash_speedup", "ratio", "higher", false, "same hashing through Pool.ForRange at nproc workers / 1 worker"),
	layer("parallel.tiny_launch_ns", "ns", "lower", false, "one-element ForRange launch"),
	layer("hashmap.insert_ns", "ns", "lower", false, "InsertIfAbsent of every leaf digest of image 0 into an empty table"),
	layer("hashmap.find_hit_ns", "ns", "lower", false, "Find of every leaf digest just inserted"),
	layer("hashmap.load_factor_end", "ratio", "lower", true, "replay table size / slots after the replayed images"),
	layer("hashmap.inserts_per_ckpt", "count", "lower", true, "new leaf digests per replayed image, k >= 1"),
	layer("dedup.checkpoint_ms_p50", "ms", "lower", false, "Deduplicator.Checkpoint alone, k >= 1"),
	layer("dedup.checkpoint_ms_tail", "ms", "lower", false, "same, at the highest percentile with >= 10 samples beyond it"),
	layer("dedup.first_ckpt_ms", "ms", "lower", false, "k = 0 (the full baseline)"),
	layer("dedup.ratio", "ratio", "higher", true, "input bytes / diff bytes over the replayed chain, baseline included"),
	layer("dedup.diff_bytes_per_ckpt", "B", "lower", true, "mean encoded diff size, k >= 1"),
	layer("dedup.metadata_share", "ratio", "lower", true, "metadata bytes / diff bytes, k >= 1"),
	layer("dedup.first_regions_per_ckpt", "count", "lower", true, "first-occurrence regions, k >= 1"),
	layer("dedup.shift_regions_per_ckpt", "count", "lower", true, "shifted-duplicate regions, k >= 1"),
	layer("dedup.fixed_leaf_share", "ratio", "higher", true, "leaves labelled FIXED_DUPL / leaves, k >= 1"),
	layer("dedup.pipelined_speedup", "ratio", "higher", false, "prefix chain wall via Checkpoint / via CheckpointAsync"),
	layer("device.modeled_gbps", "GB/s", "higher", true, "the paper's metric: input bytes / modeled dedup+transfer time"),
	layer("device.kernel_launches_per_ckpt", "count", "lower", true, "modeled kernel submissions per checkpoint"),
	layer("checkpoint.encode_gbps", "GB/s", "higher", false, "Diff.Encode of every replayed diff into a reused buffer"),
	layer("checkpoint.decode_gbps", "GB/s", "higher", false, "checkpoint.Decode of the same bytes"),
	layer("checkpoint.restore_replay_ms_p50", "ms", "lower", false, "Record.Restore(k) on the replayed record, sampled k"),
	layer("checkpoint.restore_gbps", "GB/s", "higher", false, "buffer length / that median"),
	layer("filestore.append_ms_p50", "ms", "lower", false, "FileStore.Append on a fresh directory and block store, k >= 1"),
	layer("filestore.append_batch_ms_per_diff", "ms", "lower", false, "FileStore.AppendBatch of up to 16 diffs / diffs"),
	layer("filestore.diff_bytes_ms_p50", "ms", "lower", false, "FileStore.DiffBytes(k) of a stored diff"),
	layer("filestore.load_s", "s", "lower", false, "FileStore.Load of the replayed store"),
	layer("filestore.files_per_ckpt", "count", "lower", true, "files under the replay store (lineage + _blocks) / diffs stored"),
	layer("filestore.disk_bytes_per_diff_byte", "ratio", "lower", true, "bytes under the replay store / encoded diff bytes"),
	layer("blockstore.intern_mbps", "MB/s", "higher", false, "Store.Intern of all-new blocks"),
	layer("blockstore.intern_hit_mbps", "MB/s", "higher", false, "Store.Intern of the same blocks again"),
	layer("blockstore.get_us_p50", "us", "lower", false, "Store.Get of one interned block"),
	layer("blockstore.blocks_per_ckpt", "count", "lower", true, "ServerStats.BlocksInterned / checkpoints after the write phase"),
	layer("blockstore.dedup_hit_ratio", "ratio", "higher", true, "BlockDedupHits / (hits + BlocksInterned) after the write phase"),
	layer("wire.frame_write_gbps", "GB/s", "higher", false, "replayed diffs as push frames through WriteFrameVec into memory"),
	layer("wire.frame_read_gbps", "GB/s", "higher", false, "the same frames back through ReadFrameInto"),
	layer("wire.rtt_us_p50", "us", "lower", false, "Client.Len: a round trip with no storage"),
	layer("wire.bytes_in_per_user_byte", "ratio", "lower", true, "ServerStats.BytesIn / user bytes after the write phase"),
	layer("wire.bytes_out_per_user_byte", "ratio", "lower", true, "ServerStats.BytesOut / user bytes after the write phase"),
	layer("client.dial_ms", "ms", "lower", false, "median gpuckpt.Dial (connect + handshake)"),
	layer("client.push_ack_ms_tail", "ms", "lower", false, "push wall at the highest percentile with >= 10 samples beyond it (else the maximum)"),
	layer("client.pull_ms_p50", "ms", "lower", false, "median Client.Pull of the whole lineage"),
	layer("client.pull_mbps", "MB/s", "higher", false, "pulled record bytes / that median"),
	layer("client.stream_diffs_per_s", "1/s", "higher", false, "replayed chain prefix by PushRecord to a fresh lineage on a fresh primary"),
	layer("server.requests_per_ckpt", "count", "lower", true, "ServerStats.Requests / checkpoints after the write phase"),
	layer("server.busy_rejects", "count", "lower", true, "ServerStats.BusyRejects after the write phase"),
	layer("server.store_share", "ratio", "lower", false, "replayed FileStore time of one push's diffs / push_ack_ms_p50; the rest is wire + scheduling"),
	layer("follower.lag_ms_p50", "ms", "lower", false, "push-call start -> standby OnApply, k >= 1"),
	layer("follower.lag_ms_tail", "ms", "lower", false, "same, tail percentile (else the maximum)"),
	layer("follower.apply_after_ack_ms_p50", "ms", "lower", false, "OnApply - ack, clamped at 0"),
	layer("follower.tail_frames", "count", "lower", true, "diffs that reached the standby over the v5 stream"),
	layer("follower.resyncs", "count", "lower", true, "span re-pulls; must be 0"),
	layer("follower.mirror_bytes_per_user_byte", "ratio", "lower", true, "bytes under the mirror / user bytes"),
	layer("follower.promote_us", "us", "lower", false, "one Promote at chain end, state verified byte-exact"),
	layer("lifecycle.compact_s", "s", "lower", false, "SetRetention(keep-last=8) + Client.Compact"),
	layer("lifecycle.compacted_diffs", "count", "higher", true, "diff files the compaction pruned"),
	layer("lifecycle.reclaimed_bytes", "B", "higher", true, "CompactInfo.FreedBytes (negative when the baseline outweighs the fold)"),
	layer("lifecycle.restore_after_compact_ms_p50", "ms", "lower", false, "Dial + Pull + Restore(k) on the compacted span"),
	layer("antientropy.digest_ms_p50", "ms", "lower", false, "Client.Digest over the whole span"),
	layer("calib.par_ms", "ms", "lower", false, "calibration kernel: 8 MiB mixed by nproc goroutines, median at rep start; says whether the second vCPU was there"),
	layer("calib.one_ms", "ms", "lower", false, "calibration kernel: 8 MiB mixed by one goroutine"),
	layer("calib.fsync_ms", "ms", "lower", false, "calibration kernel: create + write 4 KiB + fsync in the work dir"),
	layer("process.gen_s", "s", "lower", false, "one-off input generation from -seed"),
	layer("process.cpu_ms_per_op", "ms", "lower", false, "getrusage user+sys over the measured phase / ops"),
	layer("process.rss_peak_mb", "MB", "lower", false, "getrusage max RSS at run end"),
	layer("process.gc_pause_ms_total", "ms", "lower", false, "GC stop-the-world pause over the measured phase"),
	layer("trace.overhead_pct", "%", "lower", false, "median wall of span-recorded ops / of the interleaved unrecorded ops - 1"),
	layer("trace.attributed_share", "ratio", "higher", false, "sum of child-span time / op wall, recorded ops"),
}

// allMetrics is both tables, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// metricByName finds a definition in either table.
func metricByName(name string) (metricDef, bool) {
	for _, m := range allMetrics() {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// onWorkload reports whether end-to-end metric m exists on workload w.
func (m metricDef) onWorkload(w string) bool {
	if m.On == nil {
		return true
	}
	for _, x := range m.On {
		if x == w {
			return true
		}
	}
	return false
}

// listMetrics prints every metric name, unit, direction and bound
// without running anything.
func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadWhy {
		fmt.Fprintf(w, "  %-16s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; G: gated by BENCHMARK.json, d: demoted to its per_layer list):")
	for _, m := range endToEnd {
		on := "all"
		if m.On != nil {
			on = strings.Join(m.On, ",")
		}
		mark := " "
		if m.Driver {
			mark = "G"
		} else if m.Demoted {
			mark = "d"
		}
		fmt.Fprintf(w, " %s%-34s %-6s %-6s bound %-5.2f on %-28s %s\n", mark, m.Name, m.Unit, m.Better, m.Bound, on, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run; * repeats exactly at a fixed seed):")
	for _, m := range perLayer {
		mark := " "
		if m.Exact {
			mark = "*"
		}
		fmt.Fprintf(w, " %s%-38s %-6s %-6s %s\n", mark, m.Name, m.Unit, m.Better, m.Doc)
	}
}
