// Package lifecycle bounds the growth of checkpoint lineages: a
// retention Policy chooses a baseline, and Fold materializes it and
// drops the folded history through one crash-safe span install on a
// checkpoint.FileStore.
//
// The problem it solves is the flip side of the paper's incremental
// diffs (§1, §2.3): a lineage is an ever-growing chain, so restore
// latency and disk footprint grow linearly with checkpoint count.
// Production systems consolidate — a restore must replay a bounded
// chain, not the full history. Fold folds the base checkpoint plus
// diffs [0..k] into one full baseline at index k by replaying them
// through checkpoint.Record (the same Apply used for restores, so the
// baseline is byte-identical to a restore at k by construction), and
// replaces the stored lineage with the folded one.
//
// Fold is a function, not an object: it holds no lock and no state.
// Its caller serializes it with every other writer of the store — the
// ckptd server calls it under the lineage lock its pushes take, and
// CompactDir owns its store outright — and supplies the worker pool,
// if any, that its restores assemble regions on.
//
// # Suffix rewriting
//
// Retained diffs above the baseline may reference pruned history: a
// Tree/List shifted-duplicate region carries a (SrcCkpt, SrcNode) pair
// that resolves against the data section of an EARLIER diff — often
// checkpoint 0, because the historical record of unique hashes keeps
// first occurrences forever (§2.2). Folding [0..k] would strand those
// references. Fold therefore classifies every retained diff:
//
//   - clean: every SrcCkpt >= k and no referenced source was itself
//     rewritten. References to exactly k stay valid because the new
//     baseline is a full image — resolving any node against it yields
//     the same bytes the original region held. Clean diffs are carried
//     over byte for byte (stable across repeated compactions).
//   - dirty: some reference would resolve below the new baseline (or
//     against a rewritten source). The diff is rewritten as a
//     self-contained MethodBasic diff — dirty-chunk bitmap between the
//     restored states at j-1 and j — which produces the identical
//     state when applied.
//
// # One span install
//
// Fold never edits stored diffs in place. It plans the whole
// post-compaction span [k, n) — the full baseline at k, the Basic
// rewrites of dirty diffs, the clean diffs unchanged — rebuilds it in
// memory, byte-compares every retained restore against the original (a
// compaction that cannot prove byte-identical restores refuses to
// touch the disk), and hands the verified span to
// checkpoint.FileStore.InstallSpan. That call writes a fresh segment
// and commits it with the manifest rename (baseline k, generation+1):
// a crash before the rename leaves the old lineage untouched, a crash
// after it leaves the new one, and the store refuses the span if the
// lineage grew since the Load the plan was made from.
package lifecycle

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Policy decides how far the baseline of a lineage may advance.
type Policy interface {
	// Name returns the canonical parseable spelling ("keep-all",
	// "keep-last=8", "keep-every=16").
	Name() string
	// Baseline returns the desired baseline for a lineage whose stored
	// diffs span [base, length). It must return a value in
	// [base, length).
	Baseline(base, length int) int
}

type keepAll struct{}

// KeepAll retains every checkpoint: the baseline never advances.
func KeepAll() Policy { return keepAll{} }

func (keepAll) Name() string             { return "keep-all" }
func (keepAll) Baseline(base, _ int) int { return base }

type keepLastN struct{ n int }

// KeepLastN retains the newest n checkpoints: the baseline advances to
// length-n (never backwards).
func KeepLastN(n int) Policy { return keepLastN{n: max(n, 1)} }

func (p keepLastN) Name() string { return "keep-last=" + strconv.Itoa(p.n) }
func (p keepLastN) Baseline(base, length int) int {
	return max(base, length-p.n)
}

type keepEvery struct{ k int }

// KeepEvery advances the baseline to the most recent multiple of k: a
// consolidated baseline exists at every k-th index over time, and at
// most k-1 diffs ever separate the newest checkpoint from a full
// image.
func KeepEvery(k int) Policy { return keepEvery{k: max(k, 1)} }

func (p keepEvery) Name() string { return "keep-every=" + strconv.Itoa(p.k) }
func (p keepEvery) Baseline(base, length int) int {
	if length <= base {
		return base
	}
	return max(base, (length-1)/p.k*p.k)
}

// ParsePolicy parses the canonical policy spellings produced by
// Policy.Name: "keep-all", "keep-last=N", "keep-every=K".
func ParsePolicy(s string) (Policy, error) {
	if s == "keep-all" {
		return KeepAll(), nil
	}
	for prefix, mk := range map[string]func(int) Policy{
		"keep-last=":  KeepLastN,
		"keep-every=": KeepEvery,
	} {
		if !strings.HasPrefix(s, prefix) {
			continue
		}
		v, err := strconv.Atoi(strings.TrimPrefix(s, prefix))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("lifecycle: policy %q needs a positive integer", s)
		}
		return mk(v), nil
	}
	return nil, fmt.Errorf("lifecycle: unknown policy %q (want keep-all, keep-last=N or keep-every=K)", s)
}

// Stats reports one fold.
type Stats struct {
	// OldBase and NewBase are the baseline before and after; equal for
	// a no-op.
	OldBase, NewBase int
	// Pruned counts the diffs folded away below the new baseline.
	Pruned int
	// Rewritten counts retained diffs rewritten as self-contained Basic
	// diffs because they referenced pruned history.
	Rewritten int
	// FreedBytes is the net on-disk change of the lineage directory:
	// the old segment's size minus the new one's. Negative when
	// consolidation costs more than it frees (short chains).
	FreedBytes int64
}

// Fold advances the baseline of store to k and drops the folded
// prefix: plan the span [k, Len), rewrite the diffs that reference
// folded history, verify every retained restore byte-exact, then
// InstallSpan. A target at or below the current baseline is a
// successful no-op; one at or past Len is an error. pool, when not
// nil, assembles the restores' regions in parallel.
//
// Fold takes no lock of its own: the caller serializes it with every
// other writer of store.
func Fold(store *checkpoint.FileStore, k int, pool *parallel.Pool) (Stats, error) {
	base, length := store.Base(), store.Len()
	st := Stats{OldBase: base, NewBase: base}
	if k <= base {
		return st, nil
	}
	if k >= length {
		return st, fmt.Errorf("lifecycle: target %d outside stored range [%d,%d)", k, base, length)
	}

	rec, err := store.Load()
	if err != nil {
		return st, err
	}
	if pool != nil {
		rec.SetPool(pool)
	}
	dataLen := rec.DataLen()
	if dataLen <= 0 {
		return st, fmt.Errorf("lifecycle: lineage has no data (length %d)", dataLen)
	}
	chunk := rec.ChunkSize()

	// Classify retained diffs: dirty ones reference history below k or
	// a source that is itself being rewritten (and thereby loses its
	// indexed regions). References to exactly k survive — the new
	// baseline is a full image.
	dirty := make(map[int]bool)
	for j := k + 1; j < length; j++ {
		shifts := rec.Diff(j).ShiftDupl
		for i := range shifts.Len() {
			if src := int(shifts.At(i).SrcCkpt); src < k || dirty[src] {
				dirty[j] = true
				break
			}
		}
	}

	// Materialize state k and sweep forward once, capturing the
	// pre/post states of every dirty diff for its Basic rewrite.
	state, err := rec.Restore(k)
	if err != nil {
		return st, fmt.Errorf("lifecycle: materializing checkpoint %d: %w", k, err)
	}
	// The post-compaction span [k, length): the full baseline, then
	// each retained diff as rewritten or, clean, the stored diff itself.
	span := []*checkpoint.Diff{{
		Method:    checkpoint.MethodFull,
		CkptID:    uint32(k),
		DataLen:   uint64(dataLen),
		ChunkSize: uint32(chunk),
		Data:      append([]byte(nil), state...),
	}}
	var prev []byte
	for j := k + 1; j < length; j++ {
		if dirty[j] {
			prev = append(prev[:0], state...)
		}
		if err := rec.Apply(state, j); err != nil {
			return st, fmt.Errorf("lifecycle: replaying checkpoint %d: %w", j, err)
		}
		d := rec.Diff(j)
		if dirty[j] {
			if d, err = RewriteBasic(prev, state, chunk, uint32(j)); err != nil {
				return st, fmt.Errorf("lifecycle: rewriting checkpoint %d: %w", j, err)
			}
		}
		span = append(span, d)
	}

	// Prove byte-identical restores before touching the disk: replay
	// the span next to the original record, comparing every retained
	// state.
	if err := verify(rec, span, pool); err != nil {
		return st, err
	}

	before := store.TotalBytes()
	if err := store.InstallSpan(k, span); err != nil {
		return st, err
	}
	st.NewBase = k
	st.Rewritten = len(dirty)
	st.Pruned = k - base
	st.FreedBytes = before - store.TotalBytes()
	return st, nil
}

// verify replays span — the post-compaction lineage — next to the
// original record and byte-compares every retained restore.
func verify(rec *checkpoint.Record, span []*checkpoint.Diff, pool *parallel.Pool) error {
	newRec := checkpoint.NewRecord()
	if pool != nil {
		newRec.SetPool(pool)
	}
	for _, d := range span {
		if err := newRec.Append(d); err != nil {
			return fmt.Errorf("lifecycle: verify checkpoint %d: %w", d.CkptID, err)
		}
	}

	dataLen := rec.DataLen()
	oldState := make([]byte, dataLen)
	newState := make([]byte, dataLen)
	for j := rec.Base(); j < newRec.Base(); j++ {
		if err := rec.Apply(oldState, j); err != nil {
			return err
		}
	}
	for j := newRec.Base(); j < newRec.Len(); j++ {
		if err := rec.Apply(oldState, j); err != nil {
			return err
		}
		if err := newRec.Apply(newState, j); err != nil {
			return err
		}
		if !bytes.Equal(oldState, newState) {
			return fmt.Errorf("lifecycle: checkpoint %d diverges after compaction; refusing to compact", j)
		}
	}
	return nil
}

// RewriteBasic builds a self-contained MethodBasic diff carrying the
// chunks that differ between prev and cur, with checkpoint id ckptID.
// Applying it to state prev yields exactly cur — the rewrite used for
// retained diffs whose references were folded away, and the fallback a
// stale pusher can use when the server rejects a diff for referencing
// pruned history.
func RewriteBasic(prev, cur []byte, chunkSize int, ckptID uint32) (*checkpoint.Diff, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("lifecycle: chunk size %d must be positive", chunkSize)
	}
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("lifecycle: state lengths differ: %d vs %d", len(prev), len(cur))
	}
	nChunks := merkle.NumChunks(len(cur), chunkSize)
	bm := make([]byte, checkpoint.BitmapLen(nChunks))
	var data []byte
	for c := 0; c < nChunks; c++ {
		lo := c * chunkSize
		hi := min(lo+chunkSize, len(cur))
		if !bytes.Equal(prev[lo:hi], cur[lo:hi]) {
			checkpoint.BitmapSet(bm, c)
			data = append(data, cur[lo:hi]...)
		}
	}
	return &checkpoint.Diff{
		Method:    checkpoint.MethodBasic,
		CkptID:    ckptID,
		DataLen:   uint64(len(cur)),
		ChunkSize: uint32(chunkSize),
		Bitmap:    bm,
		Data:      data,
	}, nil
}
