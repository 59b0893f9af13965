// Package dedup implements the paper's primary contribution: scalable
// incremental checkpointing by GPU-accelerated de-duplication (Tan et
// al., ICPP 2023).
//
// Four methods are provided, matching §3.2 ("Compared state-of-the-art
// methods"):
//
//   - Full:  every checkpoint stores the complete buffer.
//   - Basic: chunks are hashed and compared against the same offset of
//     the previous checkpoint; a bitmap plus the changed chunks are
//     stored (dirty-chunk tracking, no spatial redundancy).
//   - List:  the full hash-table based de-duplication of the Tree
//     method but without metadata compaction — every first-occurrence
//     and shifted-duplicate chunk gets its own metadata entry.
//   - Tree:  the contribution — Algorithm 1. Chunk digests are the
//     leaves of a Merkle tree; contiguous regions with uniform labels
//     are consolidated bottom-up into a close-to-minimal set of
//     non-overlapping regions, shrinking metadata dramatically.
//
// All methods execute their data-parallel phases for real on the
// simulated device's worker pool and charge modeled GPU time to the
// device clock (see package device).
package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

// Label classifies a tree node during one checkpoint, following
// Algorithm 1. The zero value means "not yet labeled".
type Label uint8

const (
	// LabelNone marks an unprocessed node.
	LabelNone Label = iota
	// LabelFixedDupl marks a region identical to the same offset of
	// the previous checkpoint; it costs nothing in the diff.
	LabelFixedDupl
	// LabelFirstOcur marks a region seen for the first time in the
	// entire checkpoint record; its bytes enter the diff.
	LabelFirstOcur
	// LabelShiftDupl marks a region identical to a region recorded at
	// a different position (same or earlier checkpoint); only a
	// reference enters the diff.
	LabelShiftDupl
	// LabelMixed marks an interior node whose children could not be
	// consolidated; its children were emitted as region roots.
	LabelMixed
)

// String returns the Algorithm 1 name of the label.
func (l Label) String() string {
	switch l {
	case LabelNone:
		return "NONE"
	case LabelFixedDupl:
		return "FIXED_DUPL"
	case LabelFirstOcur:
		return "FIRST_OCUR"
	case LabelShiftDupl:
		return "SHIFT_DUPL"
	case LabelMixed:
		return "MIXED"
	default:
		return fmt.Sprintf("Label(%d)", uint8(l))
	}
}

// Options tunes a Deduplicator. The zero value reproduces the paper's
// configuration; the Disable*/Per*/Unfused knobs exist for the
// ablation benchmarks of the design choices in §2.4.
type Options struct {
	// ChunkSize is the de-duplication granularity in bytes (§3.3
	// sweeps 32..512). Default 128.
	ChunkSize int
	// Seed is the Murmur3 seed.
	Seed uint32
	// MapCapacity is the number of entries the historical record
	// holds: a table of 2 × capacity slots. The default (0) is a table
	// of the next power of two of 6 × the node count slots, room for
	// several checkpoints of moderate change rate.
	MapCapacity int
	// SingleStage disables the two-stage parallelization of §2.2
	// (first-occurrence subtrees before shifted-duplicate subtrees).
	// In single-stage mode shifted regions cannot match
	// first-occurrence regions registered in the same checkpoint,
	// reproducing the missed-de-duplication hazard the paper avoids.
	SingleStage bool
	// PerThreadGather models the gather with one thread per region
	// instead of the team-based coalesced copy (§2.4 serialization
	// ablation): the cost model charges an uncoalesced-access penalty.
	// The CPU copy itself is the same in both modes.
	PerThreadGather bool
	// Unfused launches one kernel per phase and per tree level
	// instead of a single fused kernel (§2.4 fused-kernel ablation),
	// multiplying kernel-launch latency.
	Unfused bool
	// HashCostMultiplier scales the modeled hashing cost; 0 means 1.
	// The cryptographic-hash ablation (§2.4: "slow cryptographic hash
	// functions such as MD5 would introduce a bottleneck") sets ~20.
	HashCostMultiplier float64
	// Compressor, when set, compresses the gathered first-occurrence
	// data inside each diff — the §5 future-work extension
	// ("compressing the first-time occurrences in the difference").
	// The compressed form is kept only when it is actually smaller.
	Compressor compress.Codec
	// StreamingTransfer models the §5 streaming extension: the
	// device-to-host transfer of the diff overlaps the de-duplication
	// of the next regions, so the modeled checkpoint time becomes
	// max(dedup, transfer) instead of their sum.
	StreamingTransfer bool
	// VerifyDuplicates byte-compares every shifted-duplicate chunk
	// against its recorded source before trusting the digest match —
	// the §2.4 hash-collision mitigation ("a cache of chunks that can
	// be directly compared"). Leaf-level only; consolidated interior
	// regions inherit their children's verification.
	VerifyDuplicates bool
	// AutoFallback deactivates incremental checkpointing for a
	// checkpoint whose data "fully changes during the checkpoint
	// interval" (§2.4: "this can be easily detected, and incremental
	// checkpointing can be deactivated"): when the gathered
	// first-occurrence data exceeds 90% of the buffer, a plain Full
	// diff is stored instead, avoiding the worst-case metadata.
	AutoFallback bool
	// FaultInjector, when set, is consulted at three stages of every
	// checkpoint with its id: "front" after admission, "back" after
	// the kernels and "append" before the record append. A non-nil
	// return fails that stage as a kernel failure would: at "front"
	// the checkpoint is refused and nothing changes, later it fails
	// the Deduplicator. The fault-injection seam of internal/faults —
	// nil in production.
	FaultInjector func(stage string, ckpt uint32) error
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 128
	}
	if o.HashCostMultiplier <= 0 {
		o.HashCostMultiplier = 1
	}
	return o
}

// Stats reports the outcome of one Checkpoint call.
type Stats struct {
	Method    checkpoint.Method
	CkptID    uint32
	ChunkSize int

	// InputBytes is the size of the checkpointed buffer.
	InputBytes int64
	// DiffBytes is the serialized size of the produced diff.
	DiffBytes int64
	// MetadataBytes is the metadata portion of the diff.
	MetadataBytes int64
	// DataBytes is the gathered-data portion of the diff.
	DataBytes int64
	// HashedBytes is what went through Murmur3: every leaf chunk, plus
	// 32 bytes (two child digests) per interior node the consolidation
	// sweeps hashed. It is the HashBytes the device model charges,
	// before Options.HashCostMultiplier.
	HashedBytes int64

	// Region/label census.
	NumFirstOcur int // first-occurrence regions emitted
	NumShiftDupl int // shifted-duplicate regions emitted
	FixedLeaves  int // leaves labeled FIXED_DUPL
	FirstLeaves  int // leaves labeled FIRST_OCUR
	ShiftLeaves  int // leaves labeled SHIFT_DUPL

	// FastPath reports that the checkpoint was entirely unchanged, so
	// the consolidation sweeps were skipped (§2.4's top-down
	// mitigation of unnecessary intermediate-node work).
	FastPath bool
	// FellBack reports that AutoFallback replaced the incremental diff
	// with a Full one because the buffer had fully changed.
	FellBack bool

	// DedupTime is the modeled on-device de-duplication time;
	// TransferTime the modeled device-to-host copy of the diff.
	DedupTime    time.Duration
	TransferTime time.Duration
}

// Deduplicator creates the incremental checkpoint record of one
// process's buffer on one (simulated) GPU. It retains the Merkle tree
// and the historical record of unique hashes across checkpoints, as
// each process does in its own GPU memory (§2.1).
//
// A checkpoint that fails past admit fails the Deduplicator, whose
// tree and insert-only record then lie ahead of the lineage: every
// later checkpoint is refused, wrapping that error, while Restore and
// Record serve the committed ones (DESIGN §11).
//
// A Deduplicator is not safe for concurrent use; the parallelism lives
// inside the kernels it launches.
type Deduplicator struct {
	method checkpoint.Method
	opts   Options
	dev    *device.Device

	dataLen int
	nChunks int
	tree    *merkle.Tree
	labels  []Label
	hmap    *hashmap.Map
	record  *checkpoint.Record
	ckptID  uint32

	// hashChunk is a test seam, nil in production: the sweeps call
	// Murmur3 directly; tests plant weak hashes here to exercise the
	// collision-mitigation path.
	hashChunk func(data []byte) murmur3.Digest

	devBytes int64 // device memory charged at construction
	closed   bool

	// Persistent per-checkpoint scratch. Hoisting it here (instead of
	// allocating inside each sweep) makes the steady-state hot path
	// allocation-free: the kernel bodies below are created once in New
	// and read their per-launch parameters from these fields.
	levels [][2]int // cached tree level intervals (static geometry)
	l      launcher // the current checkpoint's kernel accounting
	gs     sweepScratch
	arena  []checkpoint.Diff // batch-allocated Diffs handed out one at a time

	// What the current checkpoint changed, the only nodes the sweeps
	// after the leaf hash visit (and the only labels that are not
	// FIXED_DUPL). All of it lives in storage sized by New for the case
	// where everything changed.
	changedBuf []uint32 // leaf-sweep output, one run per block (see leafBody)
	changed    []uint32 // changed chunk ids, ascending: changedBuf packed
	anc        []uint32 // ancestors of the changed leaves, one ascending run per level
	ancEnd     []int    // the run of d.levels[k] is anc[ancEnd[k]:ancEnd[k+1]]
	curLevel   []uint32 // the run being swept
	walkStack  []uint32 // listRegions' descent stack

	// The region lists of the current checkpoint, walked into once and
	// copied out at exact size (listRegions); Basic lists its changed
	// leaves in regionFirsts for the gather alone. Region roots cover
	// disjoint runs of leaves, so New sizes them for one region a chunk.
	regionFirsts checkpoint.FirstList
	regionShifts checkpoint.ShiftList

	sweepData []byte // buffer the current checkpoint's sweeps read

	// gather/scan scratch of whichever method this Deduplicator runs.
	gatherData    []byte
	gatherFirsts  checkpoint.FirstList
	gatherOut     []byte
	gatherSizes   []int64
	gatherOffsets []int64

	zeroBitmap []byte // shared all-zero bitmap for unchanged Basic checkpoints

	// Kernel bodies stored once so launches do not allocate closures.
	leafBody        func(lo, hi int)
	basicBody       func(lo, hi int)
	reconcileBody   func(lo, hi int)
	firstLevelBody  func(lo, hi int)
	consolidateBody func(lo, hi int)
	gatherSizesBody func(lo, hi int)
	gatherBody      func(lo, hi int)

	failed error // the first checkpoint that failed past admit
}

// sweepScratch holds the atomic counters the labeling sweeps
// accumulate into, plus what their blocks hand back under a lock: the
// sweep error and the leaf sweep's runs of changed chunks. Reused
// across checkpoints.
type sweepScratch struct {
	mapOps, shiftN, verified, hashed atomic.Int64 //ckptlint:atomic

	mu sync.Mutex
	//ckptlint:guardedby mu
	err error
	//ckptlint:guardedby mu
	runs []changedRun // at most one per pool worker; capacity set by New
}

// changedRun is the output of one leaf-sweep block: n changed chunk
// ids stored from index lo of the changed buffer.
type changedRun struct{ lo, n int }

// fail records the first error raised inside a parallel sweep.
func (g *sweepScratch) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// takeErr returns and clears the recorded sweep error.
func (g *sweepScratch) takeErr() error {
	g.mu.Lock()
	err := g.err
	g.err = nil
	g.mu.Unlock()
	return err
}

// addRun records that a leaf-sweep block stored n changed chunk ids
// from index lo of the changed buffer.
//
//ckptlint:noalloc
func (g *sweepScratch) addRun(lo, n int) {
	g.mu.Lock()
	g.runs = append(g.runs, changedRun{lo, n})
	g.mu.Unlock()
}

// packRuns moves the recorded runs to the front of buf in block order
// — which is chunk order — forgets them, and returns the packed list.
//
//ckptlint:noalloc
func (g *sweepScratch) packRuns(buf []uint32) []uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	slices.SortFunc(g.runs, func(a, b changedRun) int { return a.lo - b.lo }) // blocks finish in any order
	n := 0
	for _, r := range g.runs {
		n += copy(buf[n:], buf[r.lo:r.lo+r.n])
	}
	g.runs = g.runs[:0]
	return buf[:n]
}

// diffArenaSize batches Diff allocations: the record retains every
// Diff, so they cannot be pooled, but handing them out of a
// block-allocated arena amortizes the per-checkpoint allocation away.
const diffArenaSize = 64

// newDiff returns a zeroed Diff from the arena.
func (d *Deduplicator) newDiff() *checkpoint.Diff {
	if len(d.arena) == 0 {
		d.arena = make([]checkpoint.Diff, diffArenaSize)
	}
	diff := &d.arena[0]
	d.arena = d.arena[1:]
	return diff
}

// wireGeom returns the diff-header geometry fields. New validates the
// geometry (dataLen > 0, 0 < ChunkSize ≤ MaxUint32), so the narrowing
// here cannot truncate; the panic is a backstop for that invariant.
func (d *Deduplicator) wireGeom() (dataLen uint64, chunkSize uint32) {
	n, cs := d.dataLen, d.opts.ChunkSize
	if n < 0 || cs <= 0 || int64(cs) > math.MaxUint32 {
		panic("dedup: invalid geometry escaped New validation")
	}
	return uint64(n), uint32(cs)
}

// growInt64 returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// ErrClosed is returned by operations on a closed Deduplicator.
var ErrClosed = errors.New("dedup: deduplicator closed")

// New creates a Deduplicator for buffers of exactly dataLen bytes
// using the given method and device. Device memory for the Merkle
// tree, label array and hash table is reserved against the modeled
// capacity and released by Close.
func New(method checkpoint.Method, dataLen int, dev *device.Device, opts Options) (*Deduplicator, error) {
	if dataLen <= 0 {
		return nil, fmt.Errorf("dedup: data length must be positive, got %d", dataLen)
	}
	if dev == nil {
		return nil, errors.New("dedup: nil device")
	}
	opts = opts.withDefaults()
	if int64(opts.ChunkSize) > math.MaxUint32 {
		return nil, fmt.Errorf("dedup: chunk size %d does not fit the diff format", opts.ChunkSize)
	}
	switch method {
	case checkpoint.MethodFull, checkpoint.MethodBasic, checkpoint.MethodList, checkpoint.MethodTree:
	default:
		return nil, fmt.Errorf("dedup: unknown method %v", method)
	}

	d := &Deduplicator{
		method:  method,
		opts:    opts,
		dev:     dev,
		dataLen: dataLen,
		nChunks: merkle.NumChunks(dataLen, opts.ChunkSize),
		record:  checkpoint.NewRecord(),
		gs:      sweepScratch{runs: make([]changedRun, 0, dev.Pool().Workers())},
	}
	d.record.SetPool(dev.Pool())
	d.tree = merkle.New(d.nChunks)
	d.levels = d.tree.Levels()
	d.initBodies()

	// Host-side sweep scratch below is not charged; the modeled device
	// holds the digests, the labels and the historical record.
	devBytes := int64(d.tree.NumNodes) * 16 // digests
	if method != checkpoint.MethodFull {
		d.changedBuf = make([]uint32, d.nChunks)
	}
	if method == checkpoint.MethodTree || method == checkpoint.MethodList {
		d.labels = make([]Label, d.tree.NumNodes)
		for i := range d.labels {
			d.labels[i] = LabelFixedDupl
		}
		devBytes += int64(d.tree.NumNodes)
		capacity := opts.MapCapacity
		if capacity <= 0 {
			capacity = defaultMapCapacity(d.tree.NumNodes)
		}
		d.hmap = hashmap.New(capacity)
		devBytes += int64(d.hmap.Capacity()) * 28
		d.anc = make([]uint32, 0, d.nChunks-1)
		d.ancEnd = make([]int, len(d.levels)+1)
		d.walkStack = make([]uint32, 0, len(d.levels)+2)
	}
	if method == checkpoint.MethodTree || method == checkpoint.MethodBasic {
		d.regionFirsts = make(checkpoint.FirstList, 0, 4*d.nChunks)
	}
	if method == checkpoint.MethodTree {
		d.regionShifts = make(checkpoint.ShiftList, 0, 12*d.nChunks)
	}
	if err := dev.Malloc(devBytes); err != nil {
		return nil, fmt.Errorf("dedup: reserving device memory: %w", err)
	}
	d.devBytes = devBytes
	return d, nil
}

// defaultMapCapacity is the capacity of a table of nextpow2(6·numNodes)
// slots, the default's slot count from when the table rounded 2n up to
// a power of two. Default-capacity chains go past 3·numNodes entries
// and rely on that headroom.
func defaultMapCapacity(numNodes int) int {
	return 1 << (bits.Len(uint(6*numNodes-1)) - 1)
}

// Record returns the checkpoint lineage accumulated so far.
func (d *Deduplicator) Record() *checkpoint.Record { return d.record }

// Close releases the modeled device memory.
func (d *Deduplicator) Close() {
	if !d.closed {
		d.dev.Free(d.devBytes)
		d.closed = true
	}
}

// Restore reconstructs the buffer as of checkpoint k, failed or not.
func (d *Deduplicator) Restore(k int) ([]byte, error) { return d.record.Restore(k) }

// compressDiff applies the configured codec to the diff's data section
// (keeping the compressed form only when it actually helps), charges
// the modeled compression time, and returns that duration.
func (d *Deduplicator) compressDiff(diff *checkpoint.Diff) (time.Duration, error) {
	if d.opts.Compressor == nil || len(diff.Data) == 0 {
		return 0, nil
	}
	comp, err := d.opts.Compressor.Compress(diff.Data)
	if err != nil {
		return 0, fmt.Errorf("dedup: compressing diff data: %w", err)
	}
	dur := time.Duration(float64(len(diff.Data)) / d.opts.Compressor.ModeledRate() * float64(time.Second))
	d.dev.ChargeDuration("compress", dur)
	if len(comp) < len(diff.Data) {
		diff.DataCodec = compress.IDOf(d.opts.Compressor)
		diff.RawDataLen = uint64(len(diff.Data))
		diff.Data = comp
	}
	return dur, nil
}

// Checkpoint de-duplicates data against the checkpoint record,
// appends the resulting diff to the lineage, charges the modeled
// kernel and transfer time, and returns the diff with its statistics.
// An error of the method's kernels, finish or the record append
// (hashmap.ErrFull, say) fails the Deduplicator.
func (d *Deduplicator) Checkpoint(data []byte) (*checkpoint.Diff, Stats, error) {
	if err := d.admit(data); err != nil {
		return nil, Stats{}, err
	}
	if err := d.inject("front"); err != nil {
		return nil, Stats{}, err
	}
	dataLen, chunkSize := d.wireGeom()
	diff := d.newDiff()
	*diff = checkpoint.Diff{Method: d.method, CkptID: d.ckptID, DataLen: dataLen, ChunkSize: chunkSize}
	var (
		st  Stats
		err error
	)
	d.sweepData = data
	switch d.method {
	case checkpoint.MethodFull:
		// The complete buffer every checkpoint: no on-device work
		// beyond the transfer, whose rate it measures (§3.2).
		d.resetLauncher("full") // charges nothing; finish reads its zero elapsed time
		diff.Data = bytes.Clone(data)
	case checkpoint.MethodBasic:
		d.checkpointBasic(data, diff)
	case checkpoint.MethodList:
		st.ShiftLeaves, err = d.checkpointList(data, diff)
	case checkpoint.MethodTree:
		st, err = d.checkpointTree(data, diff)
	}
	d.sweepData = nil
	if err != nil {
		return nil, Stats{}, d.fail(err)
	}
	d.l.flush()
	if err := d.inject("back"); err != nil {
		return nil, Stats{}, d.fail(err)
	}
	if st, err = d.finish(data, diff, st); err != nil {
		return nil, Stats{}, d.fail(err)
	}
	if err := d.inject("append"); err != nil {
		return nil, Stats{}, d.fail(err)
	}
	if err := d.record.Append(diff); err != nil {
		return nil, Stats{}, d.fail(fmt.Errorf("dedup: appending diff: %w", err))
	}
	d.ckptID++
	return diff, st, nil
}

// inject consults Options.FaultInjector at a stage of the current
// checkpoint and wraps the failure it returns, if any.
func (d *Deduplicator) inject(stage string) error {
	if inj := d.opts.FaultInjector; inj != nil {
		if err := inj(stage, d.ckptID); err != nil {
			return fmt.Errorf("dedup: %s stage of checkpoint %d: %w", stage, d.ckptID, err)
		}
	}
	return nil
}

// fail makes err, a failure past admit, the Deduplicator's and
// returns it.
func (d *Deduplicator) fail(err error) error {
	d.failed = err
	return err
}

// admit refuses a checkpoint of a closed or failed deduplicator or of
// a buffer of the wrong length. It changes nothing.
func (d *Deduplicator) admit(data []byte) error {
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return fmt.Errorf("dedup: refused after a failed checkpoint: %w", d.failed)
	}
	if len(data) != d.dataLen {
		return fmt.Errorf("dedup: buffer length %d, deduplicator configured for %d",
			len(data), d.dataLen)
	}
	return nil
}

// finish completes the current checkpoint after its method's kernels.
// An incremental method's Stats get their census: its leaves are the
// changed chunks the leaf sweep listed, st.ShiftLeaves of them shifted
// duplicates, and its regions those of the diff. Then come Tree's
// AutoFallback, the compression of the diff, the other statistics and
// the device-to-host transfer. DedupTime is what the checkpoint's
// launcher charged plus the compression.
func (d *Deduplicator) finish(data []byte, diff *checkpoint.Diff, st Stats) (Stats, error) {
	if d.method != checkpoint.MethodFull {
		st.FixedLeaves = d.nChunks - len(d.changed)
		st.FirstLeaves = len(d.changed) - st.ShiftLeaves
		st.HashedBytes += int64(d.dataLen)
		st.NumFirstOcur, st.NumShiftDupl = diff.FirstOcur.Len(), diff.ShiftDupl.Len()
	}
	// §2.4: when (almost) the whole buffer changed, incremental
	// checkpointing is deactivated for this interval — a Full diff
	// carries the same bytes without the metadata.
	if d.method == checkpoint.MethodTree && d.opts.AutoFallback && int64(len(diff.Data)) > int64(0.9*float64(d.dataLen)) {
		st.FellBack = true
		diff.Method, diff.FirstOcur, diff.ShiftDupl, diff.Data = checkpoint.MethodFull, nil, nil, bytes.Clone(data)
	}
	compDur, err := d.compressDiff(diff)
	if err != nil {
		return Stats{}, err
	}
	st.Method = d.method
	st.CkptID = d.ckptID
	st.ChunkSize = d.opts.ChunkSize
	st.InputBytes = int64(d.dataLen)
	st.DiffBytes = diff.TotalBytes()
	st.MetadataBytes = diff.MetadataBytes()
	st.DataBytes = int64(len(diff.Data))
	st.DedupTime = d.l.elapsed + compDur

	if d.opts.StreamingTransfer {
		// §5 streaming extension: the transfer overlaps the
		// de-duplication pipeline, so only the non-overlapped tail
		// blocks the application.
		xfer := d.dev.EstimateTransfer(diff.TotalBytes())
		tail := xfer - st.DedupTime
		if tail < 0 {
			tail = 0
		}
		d.dev.ChargeDuration("d2h-streamed", tail)
		st.TransferTime = tail
	} else {
		st.TransferTime = d.dev.CopyToHost(diff.TotalBytes())
	}
	return st, nil
}

// launcher accumulates kernel costs, modeling either a single fused
// kernel (one launch latency for the whole pipeline, §2.4) or one
// launch per phase/level. It also tracks the total modeled duration it
// charged, which finish reads as the checkpoint's kernel time.
type launcher struct {
	dev     *device.Device
	fused   bool
	name    string
	pending device.Cost
	any     bool
	elapsed time.Duration
}

// reset reinitializes the launcher for one checkpoint, clearing any
// pending cost and the elapsed accumulator.
func (l *launcher) reset(dev *device.Device, fused bool, name string) {
	*l = launcher{dev: dev, fused: fused, name: name}
}

// resetLauncher resets and returns the current checkpoint's launcher.
func (d *Deduplicator) resetLauncher(name string) *launcher {
	d.l.reset(d.dev, !d.opts.Unfused, name)
	return &d.l
}

// phase charges one pipeline phase. In fused mode the cost is folded
// into a single pending launch; otherwise it is charged immediately as
// its own kernel.
func (l *launcher) phase(name string, c device.Cost) {
	if l.fused {
		l.pending = l.pending.Add(c)
		l.any = true
		return
	}
	l.elapsed += l.dev.Charge(name, c)
}

// flush submits the fused kernel if one is pending.
func (l *launcher) flush() {
	if l.fused && l.any {
		l.elapsed += l.dev.Charge(l.name, l.pending)
		l.pending = device.Cost{}
		l.any = false
	}
}

// chunkSpan returns the byte range of chunk c, clamped at the tail.
func (d *Deduplicator) chunkSpan(c int) (lo, hi int) {
	lo = c * d.opts.ChunkSize
	hi = lo + d.opts.ChunkSize
	if hi > d.dataLen {
		hi = d.dataLen
	}
	return lo, hi
}
