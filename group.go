package gpuckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Group checkpoints several named buffers of one process together on a
// single simulated GPU — the usual shape of real applications, which
// protect multiple data structures per rank (the paper's processes
// checkpoint their GDV plus solver state). Every member keeps its own
// Merkle tree and historical record, but they share the device (and
// therefore the modeled clock, memory capacity and transfer
// contention).
//
// A Group is not safe for concurrent use.
type Group struct {
	cfg     Config
	pool    *parallel.Pool
	dev     *device.Device
	members map[string]*groupMember
	order   []string
	ckpts   int
	closed  bool
	// blocks is the PersistDir's shared content-addressed block store,
	// opened once for all members when <PersistDir>/_blocks exists.
	// One handle serves every member store: the block store's log has
	// one writable owner, and sharing is the point — identical chunks
	// across members are stored once.
	blocks *blockstore.Store
}

type groupMember struct {
	d     *dedup.Deduplicator
	store *checkpoint.FileStore
	size  int
}

// NewGroup creates an empty group. Config applies to every member;
// PersistDir, when set, receives one subdirectory per member.
func NewGroup(cfg Config) *Group {
	pool := parallel.NewPool(cfg.Workers)
	return &Group{
		cfg:     cfg,
		pool:    pool,
		dev:     device.New(cfg.GPU.toParams(), pool, nil),
		members: make(map[string]*groupMember),
	}
}

// Protect registers a named buffer of exactly dataLen bytes. All
// members must be registered before the first Checkpoint.
func (g *Group) Protect(name string, dataLen int) error {
	if g.closed {
		return ErrGroupClosed
	}
	if name == "" {
		return fmt.Errorf("gpuckpt: empty member name")
	}
	if _, dup := g.members[name]; dup {
		return fmt.Errorf("gpuckpt: member %q already protected", name)
	}
	if g.ckpts > 0 {
		return fmt.Errorf("gpuckpt: cannot add member %q after the first checkpoint", name)
	}
	d, err := newDedup(g.cfg, dataLen, g.dev)
	if err != nil {
		return err
	}
	m := &groupMember{d: d, size: dataLen}
	if g.cfg.PersistDir != "" {
		if err := g.attachBlocks(); err != nil {
			d.Close()
			return err
		}
		store, err := checkpoint.NewFileStoreWith(filepath.Join(g.cfg.PersistDir, name), g.blocks)
		if err != nil {
			d.Close()
			return err
		}
		if n := store.Len(); n != 0 {
			store.Close()
			d.Close()
			return fmt.Errorf("gpuckpt: member dir for %q already holds %d diffs", name, n)
		}
		m.store = store
	}
	g.members[name] = m
	g.order = append(g.order, name)
	sort.Strings(g.order)
	return nil
}

// attachBlocks opens the group-wide block store when the PersistDir
// carries one, exactly once.
func (g *Group) attachBlocks() error {
	if g.blocks != nil {
		return nil
	}
	dir := filepath.Join(g.cfg.PersistDir, blockstore.DirName)
	fi, err := os.Stat(dir)
	if err != nil || !fi.IsDir() {
		return nil // self-contained member lineages
	}
	bs, err := blockstore.Open(dir, blockstore.Options{})
	if err != nil {
		return err
	}
	g.blocks = bs
	return nil
}

// Members lists the protected buffer names, sorted.
func (g *Group) Members() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// ErrGroupClosed is returned by operations on a closed Group.
var ErrGroupClosed = fmt.Errorf("gpuckpt: group closed")

// GroupResult aggregates one group checkpoint.
type GroupResult struct {
	// CkptID is the group checkpoint index.
	CkptID int
	// PerMember holds each member's individual result.
	PerMember map[string]Result
	// InputBytes and StoredBytes are summed over members.
	InputBytes, StoredBytes int64
	// DedupTime and TransferTime are summed over members (they share
	// one GPU, so the phases serialize).
	DedupTime, TransferTime time.Duration
}

// Ratio returns the aggregate de-duplication ratio of this checkpoint.
func (r GroupResult) Ratio() float64 {
	if r.StoredBytes == 0 {
		return 0
	}
	return float64(r.InputBytes) / float64(r.StoredBytes)
}

// Checkpoint captures all members atomically-by-convention: buffers
// must contain exactly the registered names with their registered
// lengths.
func (g *Group) Checkpoint(buffers map[string][]byte) (GroupResult, error) {
	if g.closed {
		return GroupResult{}, ErrGroupClosed
	}
	if len(g.members) == 0 {
		return GroupResult{}, fmt.Errorf("gpuckpt: group has no members")
	}
	if len(buffers) != len(g.members) {
		return GroupResult{}, fmt.Errorf("gpuckpt: got %d buffers, group protects %d", len(buffers), len(g.members))
	}
	for name := range buffers {
		if _, ok := g.members[name]; !ok {
			return GroupResult{}, fmt.Errorf("gpuckpt: unknown member %q", name)
		}
	}
	res := GroupResult{CkptID: g.ckpts, PerMember: make(map[string]Result, len(g.members))}
	for _, name := range g.order {
		m := g.members[name]
		buf := buffers[name]
		diff, st, err := m.d.Checkpoint(buf)
		if err != nil {
			return GroupResult{}, fmt.Errorf("gpuckpt: member %q: %w", name, err)
		}
		if m.store != nil {
			if err := m.store.Append(diff); err != nil {
				return GroupResult{}, fmt.Errorf("gpuckpt: persisting member %q: %w", name, err)
			}
		}
		r := Result{
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
		}
		res.PerMember[name] = r
		res.InputBytes += r.InputBytes
		res.StoredBytes += r.StoredBytes
		res.DedupTime += r.DedupTime
		res.TransferTime += r.TransferTime
	}
	g.ckpts++
	return res, nil
}

// NumCheckpoints returns the number of group checkpoints taken.
func (g *Group) NumCheckpoints() int { return g.ckpts }

// RecordBytes returns the total serialized size across all members.
func (g *Group) RecordBytes() int64 {
	var total int64
	for _, m := range g.members {
		total += m.d.Record().TotalBytes()
	}
	return total
}

// ModeledTime returns the cumulative modeled device time of the group.
func (g *Group) ModeledTime() time.Duration { return g.dev.Elapsed() }

// Restore reconstructs every member as of group checkpoint k.
func (g *Group) Restore(k int) (map[string][]byte, error) {
	if k < 0 || k >= g.ckpts {
		return nil, fmt.Errorf("gpuckpt: group checkpoint %d out of range [0,%d)", k, g.ckpts)
	}
	out := make(map[string][]byte, len(g.members))
	for _, name := range g.order {
		state, err := g.members[name].d.Restore(k)
		if err != nil {
			return nil, fmt.Errorf("gpuckpt: member %q: %w", name, err)
		}
		out[name] = state
	}
	return out, nil
}

// RestoreLatest reconstructs every member at the latest checkpoint.
func (g *Group) RestoreLatest() (map[string][]byte, error) {
	return g.Restore(g.ckpts - 1)
}

// Close releases the modeled device memory and the lineage store of
// every member, the shared block store, if one was attached, and the
// worker pool. The members' records stay restorable, sequentially.
func (g *Group) Close() {
	if g.closed {
		return
	}
	for _, m := range g.members {
		m.d.Record().SetPool(nil) // as Checkpointer.Close: no launch on the closed pool
		m.d.Close()
		if m.store != nil {
			m.store.Close() // releases the segment; the block store is the Group's
		}
	}
	if g.blocks != nil {
		g.blocks.Close()
		g.blocks = nil
	}
	g.pool.Close()
	g.closed = true
}
