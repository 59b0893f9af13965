package dedup

import (
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// initBasicBodies creates the Basic baseline's kernel bodies once (see
// initBodies): the hash/compare sweep, the bitmap pack, and the
// size/copy gather sweeps, all reading scratch from Deduplicator
// fields.
func (d *Deduplicator) initBasicBodies() {
	d.basicHashBody = func(lo, hi int) {
		data := d.frontData
		var ch, fx int64
		for c := lo; c < hi; c++ {
			node := d.tree.LeafNode(c)
			off, end := d.chunkSpan(c)
			dig := d.hashOne(data[off:end])
			if dig == d.tree.Digests[node] {
				d.basicChanged[c] = 0
				fx++
				continue
			}
			d.tree.Digests[node] = dig
			d.basicChanged[c] = 1
			ch++
		}
		d.gs.changedN.Add(ch)
		d.gs.fixedN.Add(fx)
	}
	// The bitmap is written sequentially per 8-chunk group to avoid
	// sub-byte races.
	d.basicBitmapBody = func(lo, hi int) {
		for b := lo; b < hi; b++ {
			var v byte
			for bit := 0; bit < 8; bit++ {
				c := b*8 + bit
				if c < d.nChunks && d.basicChanged[c] == 1 {
					v |= 1 << bit
				}
			}
			d.basicBitmap[b] = v
		}
	}
	d.basicSizesBody = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if d.basicChanged[c] == 1 {
				off, end := d.chunkSpan(c)
				d.gatherSizes[c] = int64(end - off)
			} else {
				d.gatherSizes[c] = 0
			}
		}
	}
	d.basicCopyBody = func(lo, hi int) {
		data := d.frontData
		for c := lo; c < hi; c++ {
			if d.basicChanged[c] == 1 {
				off, end := d.chunkSpan(c)
				copy(d.basicOut[d.gatherOffsets[c]:d.gatherOffsets[c]+d.gatherSizes[c]], data[off:end])
			}
		}
	}
}

// checkpointFull implements the Full baseline: the complete buffer is
// shipped every checkpoint. There is no on-device work beyond the
// transfer, so its throughput measures the raw GPU-to-host flush
// bandwidth (§3.2).
func (d *Deduplicator) checkpointFull(data []byte) (*checkpoint.Diff, Stats, error) {
	dataLen, chunkSize := d.wireGeom()
	var st Stats
	cp := make([]byte, len(data))
	copy(cp, data)
	diff := d.newDiff()
	*diff = checkpoint.Diff{
		Method:    checkpoint.MethodFull,
		CkptID:    d.ckptID,
		DataLen:   dataLen,
		ChunkSize: chunkSize,
		Data:      cp,
	}
	return diff, st, nil
}

// checkpointBasic implements the Basic incremental baseline (§3.2):
// chunks are hashed and compared against the hash of the same chunk
// position in the previous checkpoint; a bitmap marks the changed
// chunks, whose bytes are gathered behind it. Spatial duplication and
// shifted temporal duplication are invisible to this method.
func (d *Deduplicator) checkpointBasic(data []byte) (*checkpoint.Diff, Stats, error) {
	dataLen, chunkSize := d.wireGeom()
	l := d.frontLauncher("basic-dedup")
	var st Stats
	pool := d.dev.Pool()

	d.frontData = data
	d.gs.changedN.Store(0)
	d.gs.fixedN.Store(0)
	pool.ForRange(d.nChunks, d.basicHashBody)
	changed := d.gs.changedN.Load()

	bitmapLen := checkpoint.BitmapLen(d.nChunks)
	leafCost := device.Cost{
		HashBytes: int64(float64(d.dataLen) * d.opts.HashCostMultiplier),
		MemBytes:  int64(d.nChunks)*16 + int64(bitmapLen),
		ChunkOps:  int64(d.nChunks),
	}

	var bitmap, out []byte
	if changed == 0 {
		// Steady state: nothing changed, so the diff is an all-zero
		// bitmap with no data. The bitmap-pack and gather sweeps are
		// skipped — one shared zero bitmap stands in (the record never
		// mutates diff contents) — while the modeled costs charged are
		// identical to what the sweeps would have incurred, so the
		// device clock is unaffected by the shortcut.
		if d.zeroBitmap == nil {
			d.zeroBitmap = make([]byte, bitmapLen)
		}
		bitmap = d.zeroBitmap
		l.phase("leaf-hash", leafCost)
		l.phase("gather", device.Cost{})
	} else {
		bitmap = make([]byte, bitmapLen)
		d.basicBitmap = bitmap
		pool.ForRange(bitmapLen, d.basicBitmapBody)
		l.phase("leaf-hash", leafCost)

		// Gather changed chunks: sizes -> exclusive scan -> parallel copy.
		d.gatherSizes = growInt64(d.gatherSizes, d.nChunks)
		d.gatherOffsets = growInt64(d.gatherOffsets, d.nChunks)
		pool.ForRange(d.nChunks, d.basicSizesBody)
		total := parallel.ScanExclusive(pool, d.gatherSizes, d.gatherOffsets)
		out = make([]byte, total)
		d.basicOut = out
		pool.ForRange(d.nChunks, d.basicCopyBody)
		l.phase("gather", device.Cost{MemBytes: 2 * total})
		d.basicBitmap, d.basicOut = nil, nil
	}
	l.flush()
	d.frontData = nil

	st.FixedLeaves = int(d.gs.fixedN.Load())
	st.FirstLeaves = int(changed)
	diff := d.newDiff()
	*diff = checkpoint.Diff{
		Method:    checkpoint.MethodBasic,
		CkptID:    d.ckptID,
		DataLen:   dataLen,
		ChunkSize: chunkSize,
		Bitmap:    bitmap,
		Data:      out,
	}
	return diff, st, nil
}

// checkpointList implements the List baseline (§3.2): identical to the
// Tree method's leaf-level de-duplication — including spatial and
// shifted temporal redundancy via the historical record — but with the
// metadata compaction omitted: every first-occurrence and
// shifted-duplicate chunk is stored as its own metadata entry.
func (d *Deduplicator) checkpointList(data []byte) (*checkpoint.Diff, Stats, error) {
	dataLen, chunkSize := d.wireGeom()
	l := d.frontLauncher("list-dedup")
	var st Stats

	d.resetLabels(l)
	fixed, first, shift, err := d.leafPhase(data, l)
	if err != nil {
		return nil, st, err
	}
	st.FixedLeaves = int(fixed)
	st.FirstLeaves = int(first)
	st.ShiftLeaves = int(shift)

	// Emit one region per non-fixed leaf, already in chunk order.
	firsts := make(checkpoint.FirstList, 0, 4*first)
	shifts := make(checkpoint.ShiftList, 0, 12*shift)
	for _, c := range d.changed {
		node := d.tree.LeafNode(int(c))
		switch d.labels[node] {
		case LabelFirstOcur:
			firsts = firsts.Append(uint32(node))
		case LabelShiftDupl:
			src, ok := d.hmap.Find(d.tree.Digests[node])
			if !ok {
				panic("dedup: shifted leaf missing from historical record")
			}
			shifts = shifts.Append(checkpoint.ShiftRegion{
				Node:    uint32(node),
				SrcNode: src.Node,
				SrcCkpt: src.Ckpt,
			})
		}
	}
	l.phase("emit-list", device.Cost{
		MemBytes: int64(len(firsts) + len(shifts)),
		MapOps:   int64(shifts.Len()),
	})

	gathered := d.gather(data, firsts, l)
	l.flush()
	d.frontData = nil

	st.NumFirstOcur = firsts.Len()
	st.NumShiftDupl = shifts.Len()
	diff := d.newDiff()
	*diff = checkpoint.Diff{
		Method:    checkpoint.MethodList,
		CkptID:    d.ckptID,
		DataLen:   dataLen,
		ChunkSize: chunkSize,
		FirstOcur: firsts,
		ShiftDupl: shifts,
		Data:      gathered,
	}
	return diff, st, nil
}
