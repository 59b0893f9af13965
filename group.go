package gpuckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
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
	members map[string]*Checkpointer
	order   []string
	ckpts   int
	closed  bool
	// failed refuses every round after one that some members
	// committed and others did not.
	failed error
	// blocks is the PersistDir's shared content-addressed block store,
	// opened once for all members when <PersistDir>/_blocks exists.
	// One handle serves every member store: the block store's log has
	// one writable owner, and sharing is the point — identical chunks
	// across members are stored once.
	blocks *blockstore.Store
}

// NewGroup creates an empty group. Config applies to every member;
// PersistDir, when set, receives one subdirectory per member.
func NewGroup(cfg Config) *Group {
	pool := parallel.NewPool(cfg.Workers)
	return &Group{
		cfg:     cfg,
		pool:    pool,
		dev:     device.New(cfg.GPU.toParams(), pool, nil),
		members: make(map[string]*Checkpointer),
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
	var dir string
	if g.cfg.PersistDir != "" {
		if err := g.attachBlocks(); err != nil {
			return err
		}
		dir = filepath.Join(g.cfg.PersistDir, name)
	}
	m, err := newCheckpointer(g.cfg, dataLen, g.dev, dir, g.blocks)
	if err != nil {
		return err
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

// Checkpoint captures all members atomically-by-convention: buffers
// must contain exactly the registered names with their registered
// lengths. A round that fails after some members committed it leaves
// their records one checkpoint ahead of the others, so the group
// refuses every later round with an error naming the member that
// failed and wrapping its cause; Restore stays exact for every round
// all members committed.
func (g *Group) Checkpoint(buffers map[string][]byte) (GroupResult, error) {
	if g.closed {
		return GroupResult{}, ErrGroupClosed
	}
	if g.failed != nil {
		return GroupResult{}, g.failed
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
	for i, name := range g.order {
		m := g.members[name]
		r, err := m.Checkpoint(buffers[name])
		if err != nil {
			err = fmt.Errorf("gpuckpt: member %q: %w", name, err)
			if i > 0 || m.NumCheckpoints() > g.ckpts { // a member committed this round
				g.failed = fmt.Errorf("gpuckpt: group round %d failed part-way: %w", g.ckpts, err)
			}
			return GroupResult{}, err
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

// Restore reconstructs every member as of group checkpoint k.
func (g *Group) Restore(k int) (map[string][]byte, error) {
	if k < 0 || k >= g.ckpts {
		return nil, fmt.Errorf("gpuckpt: group checkpoint %d out of range [0,%d)", k, g.ckpts)
	}
	out := make(map[string][]byte, len(g.members))
	for _, name := range g.order {
		state, err := g.members[name].Restore(k)
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
		m.release() // the block store is the Group's, closed below
	}
	if g.blocks != nil {
		g.blocks.Close()
		g.blocks = nil
	}
	g.pool.Close()
	g.closed = true
}
