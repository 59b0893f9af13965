package gpuckpt

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/lifecycle"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Method selects the de-duplication strategy.
type Method = checkpoint.Method

// The implemented methods (§3.2 of the paper).
const (
	// MethodFull stores the complete buffer every checkpoint.
	MethodFull = checkpoint.MethodFull
	// MethodBasic stores a dirty-chunk bitmap plus changed chunks.
	MethodBasic = checkpoint.MethodBasic
	// MethodList de-duplicates chunks spatially and temporally but
	// stores one metadata entry per chunk.
	MethodList = checkpoint.MethodList
	// MethodTree is the paper's contribution: hash-based
	// de-duplication with Merkle-tree compacted region metadata.
	MethodTree = checkpoint.MethodTree
)

// GPUModel describes the simulated accelerator used to model
// de-duplication and transfer time. The zero value selects A100().
type GPUModel struct {
	// Name labels the model in reports.
	Name string
	// MemBandwidth is the effective device-memory bandwidth (B/s).
	MemBandwidth float64
	// PCIeBandwidth is the device-to-host bandwidth (B/s).
	PCIeBandwidth float64
	// HashRate is the aggregate chunk-hashing throughput (B/s).
	HashRate float64
	// MapOpRate is the hash-table operation rate (ops/s).
	MapOpRate float64
	// KernelLaunchLatency is the fixed per-kernel submission cost.
	KernelLaunchLatency time.Duration
	// MemCapacity is the device memory available for the checkpoint
	// record (bytes).
	MemCapacity int64
}

// A100 returns the default GPU model, calibrated to the NVIDIA A100
// systems of the paper's evaluation (§3.1).
func A100() GPUModel {
	p := device.A100()
	return GPUModel{
		Name:                p.Name,
		MemBandwidth:        p.MemBandwidth,
		PCIeBandwidth:       p.PCIeBandwidth,
		HashRate:            p.HashRate,
		MapOpRate:           p.MapOpRate,
		KernelLaunchLatency: p.KernelLaunchLatency,
		MemCapacity:         p.MemCapacity,
	}
}

// toParams converts the model to device parameters. Unset (zero)
// fields are filled from the A100 defaults individually, so a custom
// model that only overrides some fields — including one that leaves
// MemBandwidth at zero — keeps its explicit values instead of being
// silently replaced by the full default profile.
func (m GPUModel) toParams() device.Params {
	p := device.A100()
	if m.Name != "" {
		p.Name = m.Name
	}
	if m.MemBandwidth != 0 {
		p.MemBandwidth = m.MemBandwidth
	}
	if m.PCIeBandwidth != 0 {
		p.PCIeBandwidth = m.PCIeBandwidth
	}
	if m.HashRate != 0 {
		p.HashRate = m.HashRate
	}
	if m.MapOpRate != 0 {
		p.MapOpRate = m.MapOpRate
	}
	if m.KernelLaunchLatency != 0 {
		p.KernelLaunchLatency = m.KernelLaunchLatency
	}
	if m.MemCapacity != 0 {
		p.MemCapacity = m.MemCapacity
	}
	return p
}

// Ablation switches off individual design choices of §2 for study.
// The zero value is the paper's configuration.
type Ablation struct {
	// SingleStage disables the two-stage labeling parallelization:
	// shifted regions can no longer match first-occurrence regions of
	// the same checkpoint, fragmenting the compact metadata.
	SingleStage bool
	// PerThreadGather disables the team-based coalesced serialization.
	PerThreadGather bool
	// UnfusedKernels launches one kernel per phase and tree level
	// instead of a single fused kernel.
	UnfusedKernels bool
	// HashCostMultiplier scales the modeled hash cost (e.g. ~20 for an
	// MD5-class cryptographic hash). 0 means 1.
	HashCostMultiplier float64
}

// Config parameterizes a Checkpointer.
type Config struct {
	// Method selects the strategy. Default MethodTree.
	Method Method
	// ChunkSize is the de-duplication granularity in bytes (the paper
	// sweeps 32-512). Default 128.
	ChunkSize int
	// GPU is the simulated device model. Zero value = A100.
	GPU GPUModel
	// Workers bounds the CPU worker pool that executes the kernels
	// (0 = GOMAXPROCS).
	Workers int
	// MapCapacity is the number of entries the historical record of
	// unique hashes holds: a table of 2 × capacity slots. Default: a
	// table of the next power of two of 6x the Merkle tree node count
	// slots.
	MapCapacity int
	// Seed is the Murmur3 hash seed.
	Seed uint32
	// Compression names a codec ("LZ4", "Deflate", "Zstd*",
	// "Cascaded", "Bitcomp") that compresses the first-occurrence data
	// inside every diff — the §5 future-work extension. Empty disables
	// it. Compression is kept per diff only when it actually shrinks
	// the data section.
	Compression string
	// Streaming models the §5 streaming extension: diff transfers
	// overlap de-duplication, so only the non-overlapped transfer tail
	// blocks the application.
	Streaming bool
	// VerifyDuplicates byte-compares every shifted-duplicate chunk
	// against its recorded source before trusting a digest match (the
	// §2.4 hash-collision mitigation).
	VerifyDuplicates bool
	// AutoFallback stores a plain Full diff for any checkpoint whose
	// buffer fully changed (§2.4: incremental checkpointing "can be
	// deactivated" when the data fully changes in an interval).
	AutoFallback bool
	// PersistDir, when set, appends every produced diff to a lineage
	// directory (one fsynced record per checkpoint in its append-only
	// segment) so the record survives the process — the bottom of the §2.3 storage
	// hierarchy. Restore it later with ReadRecordDir.
	PersistDir string
	// Ablation switches for the §2.4 design-choice studies.
	Ablation Ablation
}

// Result reports one checkpoint operation.
type Result struct {
	// CkptID is the checkpoint's position in the record (0-based).
	CkptID uint32
	// InputBytes is the buffer size.
	InputBytes int64
	// StoredBytes is the serialized diff size.
	StoredBytes int64
	// MetadataBytes is the metadata portion of the diff.
	MetadataBytes int64
	// DataBytes is the first-occurrence data portion of the diff.
	DataBytes int64
	// FirstRegions and ShiftRegions count the emitted metadata
	// entries; FixedChunks counts chunks that cost nothing.
	FirstRegions, ShiftRegions, FixedChunks int
	// DedupTime and TransferTime are the modeled device times.
	DedupTime, TransferTime time.Duration
}

// Ratio returns InputBytes/StoredBytes for this checkpoint.
func (r Result) Ratio() float64 {
	if r.StoredBytes == 0 {
		return 0
	}
	return float64(r.InputBytes) / float64(r.StoredBytes)
}

// Throughput returns the paper's metric: input bytes divided by the
// modeled time to create and ship the checkpoint (B/s).
func (r Result) Throughput() float64 {
	t := r.DedupTime + r.TransferTime
	if t <= 0 {
		return 0
	}
	return float64(r.InputBytes) / t.Seconds()
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("ckpt %d: %d -> %d bytes (%.2fx, %d+%d regions, %v dedup, %v transfer)",
		r.CkptID, r.InputBytes, r.StoredBytes, r.Ratio(),
		r.FirstRegions, r.ShiftRegions, r.DedupTime, r.TransferTime)
}

// Checkpointer owns the incremental checkpoint record of one
// fixed-size buffer on one simulated GPU. It is not safe for
// concurrent use; the parallelism lives inside the kernels.
type Checkpointer struct {
	d       *dedup.Deduplicator
	dev     *device.Device
	pool    *parallel.Pool
	cfg     Config
	dataLen int
	store   *checkpoint.FileStore
}

// New creates a Checkpointer for buffers of exactly dataLen bytes.
func New(cfg Config, dataLen int) (*Checkpointer, error) {
	if dataLen <= 0 {
		return nil, fmt.Errorf("gpuckpt: data length must be positive, got %d", dataLen)
	}
	pool := parallel.NewPool(cfg.Workers)
	dev := device.New(cfg.GPU.toParams(), pool, nil)
	d, err := newDedup(cfg, dataLen, dev)
	if err != nil {
		return nil, err
	}
	c := &Checkpointer{d: d, dev: dev, pool: pool, cfg: cfg, dataLen: dataLen}
	if cfg.PersistDir != "" {
		store, err := checkpoint.NewFileStoreWith(cfg.PersistDir, nil)
		if err != nil {
			return nil, err
		}
		if n := store.Len(); n != 0 {
			store.Close()
			return nil, fmt.Errorf("gpuckpt: persist dir %s already holds %d diffs", cfg.PersistDir, n)
		}
		c.store = store
	}
	return c, nil
}

// newDedup builds the engine for one lineage.
func newDedup(cfg Config, dataLen int, dev *device.Device) (*dedup.Deduplicator, error) {
	opts := dedup.Options{
		ChunkSize:          cfg.ChunkSize,
		Seed:               cfg.Seed,
		MapCapacity:        cfg.MapCapacity,
		SingleStage:        cfg.Ablation.SingleStage,
		PerThreadGather:    cfg.Ablation.PerThreadGather,
		Unfused:            cfg.Ablation.UnfusedKernels,
		HashCostMultiplier: cfg.Ablation.HashCostMultiplier,
		StreamingTransfer:  cfg.Streaming,
		VerifyDuplicates:   cfg.VerifyDuplicates,
		AutoFallback:       cfg.AutoFallback,
	}
	if cfg.Compression != "" {
		codec, err := compress.ByName(cfg.Compression)
		if err != nil {
			return nil, fmt.Errorf("gpuckpt: %w", err)
		}
		opts.Compressor = codec
	}
	return dedup.New(cfg.Method, dataLen, dev, opts)
}

// Rebase squashes the lineage: the current latest state becomes the
// full first checkpoint of a fresh record (with a fresh historical
// record of unique hashes), and the previous lineage is returned as a
// read-only Record for archival. Long-running applications rebase
// periodically to bound restore chain length and GPU-resident
// metadata.
// With PersistDir configured, the old lineage directory is renamed to
// `<dir>.pre-rebase-<k>` and a fresh directory takes its place.
func (c *Checkpointer) Rebase() (*Record, error) {
	n := c.NumCheckpoints()
	if n == 0 {
		return nil, errors.New("gpuckpt: nothing to rebase")
	}
	state, err := c.d.Restore(n - 1)
	if err != nil {
		return nil, fmt.Errorf("gpuckpt: rebase restore: %w", err)
	}
	if c.store != nil {
		dir := c.store.Dir()
		var archived string
		for k := 0; ; k++ {
			archived = fmt.Sprintf("%s.pre-rebase-%d", dir, k)
			if _, err := os.Stat(archived); errors.Is(err, os.ErrNotExist) {
				break
			}
		}
		if err := os.Rename(dir, archived); err != nil {
			return nil, fmt.Errorf("gpuckpt: archiving lineage dir: %w", err)
		}
		if err := c.store.Close(); err != nil {
			return nil, fmt.Errorf("gpuckpt: closing archived lineage store: %w", err)
		}
		store, err := checkpoint.NewFileStoreWith(dir, nil)
		if err != nil {
			return nil, err
		}
		c.store = store
	}
	old := c.d
	fresh, err := newDedup(c.cfg, c.dataLen, c.dev)
	if err != nil {
		return nil, err
	}
	if _, _, err := fresh.Checkpoint(state); err != nil {
		fresh.Close()
		return nil, fmt.Errorf("gpuckpt: rebase baseline: %w", err)
	}
	if c.store != nil {
		if err := c.store.Append(fresh.Record().Diff(0)); err != nil {
			fresh.Close()
			return nil, fmt.Errorf("gpuckpt: persisting rebase baseline: %w", err)
		}
	}
	c.d = fresh
	old.Close()
	// Detach the archived lineage from the pool: it outlives this
	// Checkpointer (and hence the pool's lifetime). Re-enable parallel
	// restores with Record.Parallel if wanted.
	archivedRec := old.Record()
	archivedRec.SetPool(nil)
	return &Record{rec: archivedRec}, nil
}

// Checkpoint de-duplicates data against the record and appends the
// resulting difference. data must have the configured length.
func (c *Checkpointer) Checkpoint(data []byte) (Result, error) {
	diff, st, err := c.d.Checkpoint(data)
	if err != nil {
		return Result{}, err
	}
	if c.store != nil {
		if err := c.store.Append(diff); err != nil {
			return Result{}, fmt.Errorf("gpuckpt: persisting diff: %w", err)
		}
	}
	return Result{
		CkptID:        st.CkptID,
		InputBytes:    st.InputBytes,
		StoredBytes:   st.DiffBytes,
		MetadataBytes: st.MetadataBytes,
		DataBytes:     st.DataBytes,
		FirstRegions:  st.NumFirstOcur,
		ShiftRegions:  st.NumShiftDupl,
		FixedChunks:   st.FixedLeaves,
		DedupTime:     st.DedupTime,
		TransferTime:  st.TransferTime,
	}, nil
}

// NumCheckpoints returns the number of checkpoints in the record.
func (c *Checkpointer) NumCheckpoints() int { return c.d.Record().Len() }

// RecordBytes returns the total serialized size of the record — the
// space-utilization metric of §1.
func (c *Checkpointer) RecordBytes() int64 { return c.d.Record().TotalBytes() }

// Restore reconstructs the buffer as of checkpoint k (bit-exact).
func (c *Checkpointer) Restore(k int) ([]byte, error) { return c.d.Restore(k) }

// RestoreLatest reconstructs the most recent checkpoint.
func (c *Checkpointer) RestoreLatest() ([]byte, error) {
	n := c.NumCheckpoints()
	if n == 0 {
		return nil, errors.New("gpuckpt: empty checkpoint record")
	}
	return c.d.Restore(n - 1)
}

// WriteDiff serializes checkpoint k's difference to w in the canonical
// wire format (readable by ReadRecord).
func (c *Checkpointer) WriteDiff(k int, w io.Writer) error {
	d, err := c.diffAt(k)
	if err != nil {
		return err
	}
	return d.Encode(w)
}

// diffAt returns checkpoint k's diff by reference — the in-memory form
// the client's zero-copy streaming push stages section-by-section
// instead of gathering through Encode.
func (c *Checkpointer) diffAt(k int) (*checkpoint.Diff, error) {
	rec := c.d.Record()
	if k < 0 || k >= rec.Len() {
		return nil, fmt.Errorf("gpuckpt: checkpoint %d out of range [0,%d)", k, rec.Len())
	}
	return rec.Diff(k), nil
}

// ModeledTime returns the cumulative modeled device time spent by this
// checkpointer (kernels + transfers).
func (c *Checkpointer) ModeledTime() time.Duration { return c.dev.Elapsed() }

// KernelStat reports the modeled cost of one kernel family.
type KernelStat struct {
	// Launches counts kernel submissions (1 per checkpoint for the
	// fused pipeline; one per phase and tree level when unfused).
	Launches int64
	// Modeled is the cumulative modeled device time.
	Modeled time.Duration
}

// KernelStats breaks the modeled device time down by kernel family
// ("tree-dedup", "d2h", "compress", ...) — the profile a performance
// engineer would read off nsys on the real system.
func (c *Checkpointer) KernelStats() map[string]KernelStat {
	out := make(map[string]KernelStat)
	for name, st := range c.dev.Stats() {
		out[name] = KernelStat{Launches: st.Launches, Modeled: st.Modeled}
	}
	return out
}

// Close releases the modeled device memory and stops the worker pool.
// The record remains restorable (region assembly falls back to
// sequential), but no further checkpoints can be taken.
func (c *Checkpointer) Close() {
	// Record() drains any in-flight pipelined backend; detach the pool
	// before stopping it so later Restore calls don't launch on a
	// closed pool.
	c.d.Record().SetPool(nil)
	c.d.Close()
	c.pool.Close()
	if c.store != nil {
		// Releases the lineage's auto-attached block store, if any.
		c.store.Close()
		c.store = nil
	}
}

// Record is a read-only checkpoint lineage reconstructed from
// serialized diffs, for restore on a machine that never held the
// original Checkpointer. A record loaded from a compacted lineage
// keeps the original absolute indexing: its checkpoints are
// [Base, Len), and Restore takes those absolute indices.
type Record struct {
	rec     *checkpoint.Record
	workers int // region-assembly parallelism of Restore; <= 1 is sequential
}

// ReadRecord decodes consecutive diffs from r until EOF and returns the
// restorable record — the inverse of Record.WriteDiff over [Base, Len):
// the first diff's id is the record's Base.
func ReadRecord(r io.Reader) (*Record, error) {
	rec := checkpoint.NewRecord()
	for {
		d, err := checkpoint.Decode(r)
		if err != nil {
			// A clean EOF at a diff boundary ends the record; EOF
			// mid-diff surfaces as ErrUnexpectedEOF and is an error.
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && rec.Len() > 0 {
				break
			}
			return nil, err
		}
		if err := rec.Append(d); err != nil {
			return nil, err
		}
	}
	return &Record{rec: rec}, nil
}

// Parallel enables multi-worker region assembly during restores (the
// §5 "scalable reconstruction" extension). workers <= 0 selects
// GOMAXPROCS. Restored bytes are identical either way.
func (r *Record) Parallel(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r.workers = workers
}

// Len returns one past the highest checkpoint index in the record.
// The restorable range is [Base(), Len()).
func (r *Record) Len() int { return r.rec.Len() }

// Base returns the record's first restorable checkpoint index — the
// compaction baseline of the lineage it was loaded from, or 0 for a
// never-compacted lineage.
func (r *Record) Base() int { return r.rec.Base() }

// Restore reconstructs the buffer as of checkpoint k. k is an
// absolute lineage index: for a record pulled from a compacted
// lineage it must lie in [Base(), Len()), and restores the same bytes
// that index restored before compaction.
func (r *Record) Restore(k int) ([]byte, error) {
	if r.workers <= 1 {
		return r.rec.Restore(k)
	}
	// The workers live for this call only: a Record has no Close that
	// could release a pool it kept.
	pool := parallel.NewPool(r.workers)
	defer pool.Close()
	rec := *r.rec // the same diffs, assembled on this call's pool
	rec.SetPool(pool)
	return rec.Restore(k)
}

// TotalBytes returns the cumulative serialized size of the record.
func (r *Record) TotalBytes() int64 { return r.rec.TotalBytes() }

// SaveRecordDir persists the current lineage into an empty directory,
// as one atomically committed batch.
func (c *Checkpointer) SaveRecordDir(dir string) error {
	store, err := checkpoint.NewFileStoreWith(dir, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	return store.WriteRecord(c.d.Record())
}

// ReadRecordDir loads a lineage directory written by PersistDir or
// SaveRecordDir into a restorable Record. For a compacted directory
// the record's Base reports the compaction baseline and Restore keeps
// accepting the original absolute indices. A directory of the replaced
// file-per-checkpoint layout is refused with an error matching
// checkpoint.ErrOldLayout, here and in CompactDir.
func ReadRecordDir(dir string) (*Record, error) {
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	// Load reassembles block-mapped diffs into memory, so the store
	// (and any auto-attached block store) can be released right after.
	defer store.Close()
	rec, err := store.Load()
	if err != nil {
		return nil, err
	}
	return &Record{rec: rec}, nil
}

// CompactDir folds the prefix of the lineage directory dir into a full
// baseline at the index chosen by policy ("keep-all", "keep-last=N",
// "keep-every=K") and drops the folded diffs. The fold is one
// crash-safe span install: an interrupted run leaves either the old
// lineage or the folded one, every retained checkpoint restorable, and
// the next write to the directory removes the loser's leftovers.
// workers bounds the restore worker pool (0 = GOMAXPROCS). A lineage
// of a ckptd root is its server's to compact: there CompactDir writes
// nothing and fails with an error matching blockstore.ErrReadOnly.
func CompactDir(dir, policy string, workers int) (CompactInfo, error) {
	pol, err := lifecycle.ParsePolicy(policy)
	if err != nil {
		return CompactInfo{}, err
	}
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return CompactInfo{}, err
	}
	defer store.Close()
	pool := parallel.NewPool(workers)
	defer pool.Close()
	return lifecycle.Fold(store, pol.Baseline(store.Base(), store.Len()), pool)
}
