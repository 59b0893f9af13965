package dedup

import (
	"bytes"
	"fmt"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// initBodies creates every kernel body once. The bodies read their
// per-launch parameters (current buffer, current level list, scratch
// slices) from Deduplicator fields, so launching them allocates no
// closures — a requirement for the allocation-free steady state.
//
// The label array is FIXED_DUPL everywhere between checkpoints, so the
// sweeps touch only what changed: the leaf sweep hashes every chunk but
// labels only the ones whose digest moved, and every later sweep runs
// over lists derived from those. The first checkpoint is simply the
// case where every chunk is on the list.
func (d *Deduplicator) initBodies() {
	// Lines 1-23 of Algorithm 1: hash every chunk and classify the
	// ones whose digest moved as FIRST_OCUR / SHIFT_DUPL against the
	// historical record of unique hashes, refreshing the leaf digests.
	// A block's changed chunk ids land at d.changedBuf[lo:], in order.
	// Chunks [0, DeepLeaves) are the leaves of the deepest level and
	// the rest the leaves one level up, so the block is swept as at
	// most two runs of consecutive nodes.
	//ckptlint:noalloc
	d.leafBody = func(lo, hi int) {
		out := d.changedBuf[lo:lo:hi]
		var ops int64
		var err error
		deep := d.tree.DeepLeaves()
		if lo < deep {
			out, ops, err = d.sweepLeaves(out, lo, min(hi, deep))
		}
		if err == nil && hi > deep {
			var k int64
			out, k, err = d.sweepLeaves(out, max(lo, deep), hi)
			ops += k
		}
		if err != nil {
			d.gs.fail(err)
		}
		d.gs.mapOps.Add(ops)
		d.gs.addRun(lo, len(out))
	}

	// Reconciliation: align the labels of the changed leaves with the
	// final map state. With VerifyDuplicates, every shifted leaf is
	// additionally byte-compared against its recorded source (§2.4's
	// hash-collision mitigation); a mismatching chunk is demoted to a
	// first occurrence so its real bytes ship.
	//ckptlint:noalloc
	d.reconcileBody = func(lo, hi int) {
		g := &d.gs
		data := d.frontData
		var fi, sh, vf int64
		for _, c := range d.changed[lo:hi] {
			node := d.tree.LeafNode(int(c))
			e, ok := d.hmap.Find(d.tree.Digests[node])
			if ok && e.Node == uint32(node) && e.Ckpt == d.ckptID {
				d.labels[node] = LabelFirstOcur
				fi++
				continue
			}
			if d.opts.VerifyDuplicates {
				vf++
				off, end := d.chunkSpan(int(c))
				if !d.sourceMatches(e, data, data[off:end]) {
					d.labels[node] = LabelFirstOcur
					fi++
					continue
				}
			}
			d.labels[node] = LabelShiftDupl
			sh++
		}
		g.mapOps.Add(int64(hi - lo))
		g.firstN.Add(fi)
		g.shiftN.Add(sh)
		g.verified.Add(vf)
	}

	// Lines 24-32 of Algorithm 1: consolidate adjacent FIRST_OCUR
	// regions one level at a time (level list in d.curLevel).
	//ckptlint:noalloc
	d.firstLevelBody = func(lo, hi int) {
		var h int64
		for _, n := range d.curLevel[lo:hi] {
			v := int(n)
			left, right := merkle.Left(v), merkle.Right(v)
			if d.labels[left] == LabelFirstOcur && d.labels[right] == LabelFirstOcur {
				dig := murmur3.SumPair(d.tree.Digests[left], d.tree.Digests[right], d.opts.Seed)
				d.tree.Digests[v] = dig
				if _, _, err := d.hmap.InsertIfAbsent(dig, hashmap.Entry{Node: n, Ckpt: d.ckptID}); err != nil {
					d.gs.fail(d.errMapFull(err))
					break
				}
				d.labels[v] = LabelFirstOcur
				h++
			}
		}
		d.gs.hashed.Add(h)
	}

	// Lines 33-46 of Algorithm 1: consolidate FIXED_DUPL and SHIFT_DUPL
	// regions. A node whose children cannot be consolidated becomes
	// MIXED; listRegions finds the region roots under it afterwards.
	// Two shifted children whose parent misses the record still
	// consolidate when they are the same bytes (equal digests, equal
	// spans): the parent is a fill, its left half repeated, and
	// walkRegions finds its source below it. Nothing is registered, so
	// every record entry still points into a first-occurrence region.
	//ckptlint:noalloc
	d.consolidateBody = func(lo, hi int) {
		var h int64
		for _, n := range d.curLevel[lo:hi] {
			v := int(n)
			left, right := merkle.Left(v), merkle.Right(v)
			la, lb := d.labels[left], d.labels[right]
			switch {
			case la == LabelFirstOcur && lb == LabelFirstOcur:
				// Consolidated (and registered) by stage one.
			case la == LabelFixedDupl && lb == LabelFixedDupl:
				d.labels[v] = LabelFixedDupl
			case la == LabelShiftDupl && lb == LabelShiftDupl:
				dig := murmur3.SumPair(d.tree.Digests[left], d.tree.Digests[right], d.opts.Seed)
				d.tree.Digests[v] = dig
				h++
				e, ok := d.lookupShift(dig)
				switch {
				case ok && !(e.Node == n && e.Ckpt == d.ckptID):
					d.labels[v] = LabelShiftDupl
				case !ok && d.sameBytes(left, right):
					d.labels[v] = LabelShiftDupl // a fill
				default:
					d.labels[v] = LabelMixed
				}
			default:
				// Differing labels (or a Mixed child).
				d.labels[v] = LabelMixed
			}
		}
		d.gs.hashed.Add(h)
	}

	// Serialization bodies (§2.4): region sizes, then the gather copy,
	// either team-coalesced or one thread per region (ablation).
	//ckptlint:noalloc
	d.gatherSizesBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off, end := d.tree.NodeSpan(int(d.gatherFirsts.At(i)), d.opts.ChunkSize, d.dataLen)
			d.gatherSizes[i] = int64(end - off)
		}
	}
	//ckptlint:noalloc
	d.gatherTeamBody = func(t parallel.Team) {
		i := t.LeagueRank()
		off, end := d.tree.NodeSpan(int(d.gatherFirsts.At(i)), d.opts.ChunkSize, d.dataLen)
		copy(d.gatherOut[d.gatherOffsets[i]:d.gatherOffsets[i]+d.gatherSizes[i]], d.gatherData[off:end])
	}
	//ckptlint:noalloc
	d.gatherPerThread = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off, end := d.tree.NodeSpan(int(d.gatherFirsts.At(i)), d.opts.ChunkSize, d.dataLen)
			copy(d.gatherOut[d.gatherOffsets[i]:d.gatherOffsets[i]+d.gatherSizes[i]], d.gatherData[off:end])
		}
	}

	d.initBasicBodies()
}

// sweepLeaves hashes chunks [lo, hi), leaves of one tree level and so
// consecutive nodes, and handles each whose digest moved: its id is
// appended to out and insertLeaf registers it. It returns out and the
// map operations spent, stopping at the first error. Whole chunks go
// two at a time, so the two Murmur3 dependency chains overlap and
// Sum128x2 takes its fixed kernel for the chunk size; the short last
// chunk, and every chunk while the hashChunk seam is set, go one by
// one.
//
//ckptlint:noalloc
func (d *Deduplicator) sweepLeaves(out []uint32, lo, hi int) ([]uint32, int64, error) {
	data, cs, seed := d.frontData, d.opts.ChunkSize, d.opts.Seed
	node := d.tree.LeafNode(lo) - lo // chunk c is node node+c
	whole := lo                      // chunks [lo, whole) are paired
	if d.hashChunk == nil {
		whole = max(lo, min(hi, d.dataLen/cs))
	}
	var ops int64
	var digs [2]murmur3.Digest
	for c, n := lo, 0; c < hi; c += n {
		if c+1 < whole {
			off := c * cs
			digs[0], digs[1] = murmur3.Sum128x2(data[off:off+cs], data[off+cs:off+2*cs], seed)
			n = 2
		} else {
			off, end := d.chunkSpan(c)
			digs[0] = d.hashOne(data[off:end])
			n = 1
		}
		for j, dig := range digs[:n] {
			if dig == d.tree.Digests[node+c+j] {
				continue
			}
			out = append(out, uint32(c+j))
			k, err := d.insertLeaf(node+c+j, dig)
			ops += k
			if err != nil {
				return out, ops, err
			}
		}
	}
	return out, ops, nil
}

// hashOne fingerprints one chunk: Murmur3 with the configured seed,
// unless a test planted a weak hash in the hashChunk seam.
//
//ckptlint:noalloc
func (d *Deduplicator) hashOne(chunk []byte) murmur3.Digest {
	if d.hashChunk != nil {
		return d.hashChunk(chunk)
	}
	return murmur3.Sum128(chunk, d.opts.Seed)
}

// insertLeaf registers the moved digest of a leaf in the historical
// record and gives the leaf its provisional label (lines 8-16 of
// Algorithm 1). It returns the map operations it spent.
//
//ckptlint:noalloc
func (d *Deduplicator) insertLeaf(node int, dig murmur3.Digest) (ops int64, err error) {
	// No entry is one the table reserves (hashmap.ErrReservedEntry):
	// node indices are below NumNodes = 2·nChunks − 1, which is odd, so
	// while every index fits a uint32 (NumNodes ≤ 2³²) none is
	// MaxUint32.
	entry := hashmap.Entry{Node: uint32(node), Ckpt: d.ckptID}
	_, inserted, err := d.hmap.InsertIfAbsent(dig, entry)
	if err != nil {
		return 1, d.errMapFull(err)
	}
	d.tree.Digests[node] = dig
	if inserted {
		d.labels[node] = LabelFirstOcur
		return 1, nil
	}
	// Lines 13-16: the earliest same-checkpoint occurrence becomes
	// canonical; later ones are shifted duplicates.
	// Its only error is ErrReservedEntry, which InsertIfAbsent just
	// ruled out for this entry.
	_, _, _ = d.hmap.UpdateIfEarlier(dig, entry)
	d.labels[node] = LabelShiftDupl
	return 2, nil
}

// errMapFull wraps hashmap.ErrFull, raised by a leaf or an interior
// insert alike, with the remedy.
func (d *Deduplicator) errMapFull(err error) error {
	return fmt.Errorf("dedup: historical record full at checkpoint %d (capacity %d); raise Options.MapCapacity: %w",
		d.ckptID, d.hmap.Capacity(), err)
}

// leafPhase implements lines 1-23 of Algorithm 1 via the stored leaf
// and reconciliation bodies.
//
// Concurrent inserts of the same digest race exactly as on the GPU;
// determinism is restored by (a) UpdateIfEarlier converging the map
// entry to the minimum node of the current checkpoint and (b) the
// reconciliation sweep that re-labels each leaf against the final map
// state, so FIRST_OCUR is held by exactly the leaf the map records.
func (d *Deduplicator) leafPhase(data []byte, l *launcher) (fixed, first, shift int64, err error) {
	pool := d.dev.Pool()
	g := &d.gs
	d.frontData = data
	g.mapOps.Store(0)
	g.firstN.Store(0)
	g.shiftN.Store(0)
	g.verified.Store(0)

	pool.ForRange(d.nChunks, d.leafBody)
	d.changed = g.packRuns(d.changedBuf)
	if err := g.takeErr(); err != nil {
		return 0, 0, 0, err
	}
	pool.ForRange(len(d.changed), d.reconcileBody)

	l.phase("leaf-hash", device.Cost{
		HashBytes: int64(float64(d.dataLen) * d.opts.HashCostMultiplier),
		MemBytes:  int64(d.nChunks)*16 + g.verified.Load()*2*int64(d.opts.ChunkSize),
		MapOps:    g.mapOps.Load(),
		ChunkOps:  int64(d.nChunks),
	})
	return int64(d.nChunks - len(d.changed)), g.firstN.Load(), g.shiftN.Load(), nil
}

// sourceMatches byte-compares a chunk against the recorded source of
// its digest. Same-checkpoint sources are leaf chunks of the current
// buffer; older sources are read from the stored record.
func (d *Deduplicator) sourceMatches(e hashmap.Entry, data, chunk []byte) bool {
	if e.Ckpt == d.ckptID {
		off, end := d.tree.NodeSpan(int(e.Node), d.opts.ChunkSize, d.dataLen)
		if end-off != len(chunk) {
			return false
		}
		return bytes.Equal(data[off:end], chunk)
	}
	src, err := d.record.RegionBytes(e.Ckpt, e.Node)
	if err != nil || len(src) != len(chunk) {
		return false
	}
	return bytes.Equal(src, chunk)
}

// resetLabels returns the label array to all-FIXED_DUPL by undoing
// exactly what the previous checkpoint labeled: its changed leaves and
// their ancestors. The GPU model still pays for clearing the array.
func (d *Deduplicator) resetLabels(l *launcher) {
	for _, c := range d.changed {
		d.labels[d.tree.LeafNode(int(c))] = LabelFixedDupl
	}
	for _, v := range d.anc {
		d.labels[v] = LabelFixedDupl
	}
	d.changed, d.anc = d.changed[:0], d.anc[:0]
	l.phase("reset-labels", device.Cost{MemBytes: int64(len(d.labels))})
}

// listAncestors fills d.anc with the ancestors of the changed leaves,
// one ascending run per level of d.levels (run k ends at d.ancEnd[k+1]):
// every level is the previous one mapped to parents with repeats
// dropped. In a tree that is not a power of two the last chunks sit
// one level above the others; their parents join the second run, which
// stays ascending because those leaves follow the interior nodes of
// their level in both node and chunk order.
//
//ckptlint:noalloc
func (d *Deduplicator) listAncestors() {
	anc, from := d.anc[:0], 0
	parent := func(v int) {
		if p := uint32(merkle.Parent(v)); len(anc) == from || anc[len(anc)-1] != p {
			anc = append(anc, p)
		}
	}
	deep, i := d.tree.DeepLeaves(), 0
	for ; i < len(d.changed) && int(d.changed[i]) < deep; i++ {
		parent(d.tree.LeafNode(int(d.changed[i])))
	}
	for k := range d.levels {
		d.ancEnd[k+1] = len(anc)
		if k == len(d.levels)-1 {
			break
		}
		run := anc[from:]
		from = len(anc)
		for _, v := range run {
			parent(int(v))
		}
		for ; k == 0 && i < len(d.changed); i++ {
			parent(d.tree.LeafNode(int(d.changed[i])))
		}
	}
	d.anc = anc
}

// sweepLevels launches body over the changed ancestors of every tree
// level, bottom-up, all nodes of a level in parallel. Each level is
// charged what the dense GPU sweep of it costs whatever share of it the
// CPU had to visit: two label bytes per node of the level, plus a pair
// hash and a map operation per node body counted in d.gs.hashed.
func (d *Deduplicator) sweepLevels(l *launcher, name string, body func(lo, hi int)) error {
	pool := d.dev.Pool()
	for k, lv := range d.levels {
		d.gs.hashed.Store(0)
		d.curLevel = d.anc[d.ancEnd[k]:d.ancEnd[k+1]]
		pool.ForRange(len(d.curLevel), body)
		if err := d.gs.takeErr(); err != nil {
			return err
		}
		n := d.gs.hashed.Load()
		l.phase(name, device.Cost{
			HashBytes: int64(float64(n*32) * d.opts.HashCostMultiplier),
			MemBytes:  int64(lv[1]-lv[0]) * 2,
			MapOps:    n,
		})
	}
	return nil
}

// walkRegions visits the roots of the maximal uniform regions left to
// right — from the root down through MIXED nodes, which is chunk
// order — and returns how many carry FIRST_OCUR and SHIFT_DUPL
// (FIXED_DUPL roots cost nothing and are skipped). Non-nil firsts and
// shifts are appended to on the way, in their wire form.
//
//ckptlint:noalloc
func (d *Deduplicator) walkRegions(firsts *checkpoint.FirstList, shifts *checkpoint.ShiftList) (nf, ns int) {
	stack := append(d.walkStack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch d.labels[v] {
		case LabelMixed:
			stack = append(stack, uint32(merkle.Right(int(v))), uint32(merkle.Left(int(v))))
		case LabelFirstOcur:
			if firsts != nil {
				*firsts = firsts.Append(v)
			}
			nf++
		case LabelShiftDupl:
			if shifts != nil {
				// A fill's own digest misses the record; its source is
				// that of its leftmost descendant that hits, repeated.
				src, ok := d.hmap.Find(d.tree.Digests[v])
				for u := int(v); !ok && !d.tree.IsLeaf(u); {
					u = merkle.Left(u)
					src, ok = d.hmap.Find(d.tree.Digests[u])
				}
				if !ok {
					// Unreachable by construction: every shifted leaf
					// was labeled after a successful map lookup.
					panic("dedup: shifted region missing from historical record")
				}
				*shifts = shifts.Append(checkpoint.ShiftRegion{Node: v, SrcNode: src.Node, SrcCkpt: src.Ckpt})
			}
			ns++
		}
	}
	return nf, ns
}

// listRegions returns the diff's region lists in chunk order, which
// makes the diff layout (and therefore the wire format) deterministic.
// They are retained by the diff, so they are allocated — at exact
// size: one walk counts, one fills.
func (d *Deduplicator) listRegions() (firsts checkpoint.FirstList, shifts checkpoint.ShiftList) {
	nf, ns := d.walkRegions(nil, nil)
	if nf > 0 {
		firsts = make(checkpoint.FirstList, 0, 4*nf)
	}
	if ns > 0 {
		shifts = make(checkpoint.ShiftList, 0, 12*ns)
	}
	d.walkRegions(&firsts, &shifts)
	return firsts, shifts
}

// sameBytes reports whether sibling subtrees hold the same bytes:
// equal digests over equal spans.
//
//ckptlint:noalloc
func (d *Deduplicator) sameBytes(left, right int) bool {
	if d.tree.Digests[left] != d.tree.Digests[right] {
		return false
	}
	lo, le := d.tree.NodeSpan(left, d.opts.ChunkSize, d.dataLen)
	ro, re := d.tree.NodeSpan(right, d.opts.ChunkSize, d.dataLen)
	return le-lo == re-ro
}

// lookupShift resolves a consolidated shifted-duplicate hash in the
// historical record. In the SingleStage ablation, entries registered
// during the current checkpoint are invisible — modeling the race the
// two-stage parallelization exists to avoid (§2.2).
func (d *Deduplicator) lookupShift(dig murmur3.Digest) (hashmap.Entry, bool) {
	e, ok := d.hmap.Find(dig)
	if !ok {
		return e, false
	}
	if d.opts.SingleStage && e.Ckpt == d.ckptID {
		return hashmap.Entry{}, false
	}
	return e, true
}

// gather serializes the first-occurrence regions into one contiguous
// buffer: offsets are pre-calculated with an exclusive scan and the
// copies run team-parallel so accesses coalesce (§2.4, "high
// throughput serialization of scattered chunks"). The returned buffer
// is freshly allocated — it is retained by the diff — but the sizes
// and offsets scratch is reused across checkpoints.
func (d *Deduplicator) gather(data []byte, firstNodes checkpoint.FirstList, l *launcher) []byte {
	if len(firstNodes) == 0 {
		return nil
	}
	pool := d.dev.Pool()
	n := firstNodes.Len()
	d.gatherData, d.gatherFirsts = data, firstNodes
	d.gatherSizes = growInt64(d.gatherSizes, n)
	d.gatherOffsets = growInt64(d.gatherOffsets, n)
	pool.ForRange(n, d.gatherSizesBody)
	total := parallel.ScanExclusive(pool, d.gatherSizes, d.gatherOffsets)
	out := make([]byte, total)
	d.gatherOut = out

	cost := device.Cost{MemBytes: 2 * total}
	if d.opts.PerThreadGather {
		// One thread per region: long strided copies, uncoalesced.
		cost.UncoalescedPenalty = 4
		pool.ForRange(n, d.gatherPerThread)
	} else {
		pool.ForTeams(n, 32, d.gatherTeamBody)
	}
	l.phase("gather", cost)
	d.gatherData, d.gatherFirsts, d.gatherOut = nil, nil, nil
	return out
}

// treeFrontResult carries the hash/label outcome of one Tree
// checkpoint from the front half to the (possibly pipelined) back
// half: leaf statistics, the fast-path flag and the region lists.
type treeFrontResult struct {
	st     Stats
	fast   bool
	firsts checkpoint.FirstList
	shifts checkpoint.ShiftList
}

// treeFront runs the hash/label/consolidate phases of Algorithm 1
// (everything up to, but not including, the gather/serialize stage).
func (d *Deduplicator) treeFront(data []byte, l *launcher) (treeFrontResult, error) {
	var fr treeFrontResult
	d.resetLabels(l)
	fixed, first, shift, err := d.leafPhase(data, l)
	if err != nil {
		return fr, err
	}
	fr.st.FixedLeaves = int(fixed)
	fr.st.FirstLeaves = int(first)
	fr.st.ShiftLeaves = int(shift)

	// Fast path: a fully unchanged buffer needs no consolidation
	// sweeps at all (§2.4's mitigation of unnecessary intermediate
	// hashing between identical checkpoints).
	if first == 0 && shift == 0 {
		fr.fast = true
		fr.st.FastPath = true
		d.frontData = nil
		return fr, nil
	}

	// Two bottom-up sweeps (§2.2): every FIRST_OCUR subtree is built and
	// registered in the historical record before any shifted duplicate
	// is consolidated, so a shifted subtree cannot miss a
	// first-occurrence entry that is still being hashed.
	d.listAncestors()
	if err := d.sweepLevels(l, "firstocur-level", d.firstLevelBody); err != nil {
		return fr, err
	}
	if err := d.sweepLevels(l, "consolidate-level", d.consolidateBody); err != nil {
		return fr, err
	}
	fr.firsts, fr.shifts = d.listRegions()
	fr.st.NumFirstOcur = fr.firsts.Len()
	fr.st.NumShiftDupl = fr.shifts.Len()
	d.frontData = nil
	return fr, nil
}

// treeBack runs the gather/serialize stage and assembles the diff for
// checkpoint id. In the pipelined engine it executes on the backend
// goroutine, overlapping the next checkpoint's treeFront; it touches
// only the gather scratch, the diff arena and fr — never the tree,
// labels or hash map the front half mutates.
func (d *Deduplicator) treeBack(data []byte, fr *treeFrontResult, l *launcher, id uint32) (*checkpoint.Diff, error) {
	dataLen, chunkSize := d.wireGeom()
	if fr.fast {
		l.flush()
		diff := d.newDiff()
		*diff = checkpoint.Diff{
			Method:    checkpoint.MethodTree,
			CkptID:    id,
			DataLen:   dataLen,
			ChunkSize: chunkSize,
		}
		return diff, nil
	}

	gathered := d.gather(data, fr.firsts, l)
	l.flush()

	// §2.4: when (almost) the whole buffer changed, incremental
	// checkpointing is deactivated for this interval — a Full diff
	// carries the same bytes without the metadata.
	if d.opts.AutoFallback && int64(len(gathered)) > int64(0.9*float64(d.dataLen)) {
		fr.st.FellBack = true
		cp := make([]byte, len(data))
		copy(cp, data)
		diff := d.newDiff()
		*diff = checkpoint.Diff{
			Method:    checkpoint.MethodFull,
			CkptID:    id,
			DataLen:   dataLen,
			ChunkSize: chunkSize,
			Data:      cp,
		}
		return diff, nil
	}

	diff := d.newDiff()
	*diff = checkpoint.Diff{
		Method:    checkpoint.MethodTree,
		CkptID:    id,
		DataLen:   dataLen,
		ChunkSize: chunkSize,
		FirstOcur: fr.firsts,
		ShiftDupl: fr.shifts,
		Data:      gathered,
	}
	return diff, nil
}

// checkpointTree runs the full Tree pipeline (Algorithm 1)
// synchronously: front and back halves on the caller's goroutine,
// sharing one launcher so fused mode still models a single kernel.
func (d *Deduplicator) checkpointTree(data []byte) (*checkpoint.Diff, Stats, error) {
	l := d.frontLauncher("tree-dedup")
	fr, err := d.treeFront(data, l)
	if err != nil {
		return nil, fr.st, err
	}
	diff, err := d.treeBack(data, &fr, l, d.ckptID)
	return diff, fr.st, err
}
