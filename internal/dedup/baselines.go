package dedup

import (
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
)

// checkpointBasic implements the Basic incremental baseline (§3.2):
// chunks are hashed and compared against the hash of the same chunk
// position in the previous checkpoint — the leaf sweep's first pass,
// with no historical record behind it. A bitmap marks the changed
// chunks, whose bytes are gathered behind it as leaf regions. Spatial
// duplication and shifted temporal duplication are invisible to this
// method.
func (d *Deduplicator) checkpointBasic(data []byte, diff *checkpoint.Diff) {
	l := d.resetLauncher("basic-dedup")
	d.dev.Pool().ForRange(d.nChunks, d.basicBody)
	d.changed = d.gs.packRuns(d.changedBuf)
	bitmapLen := checkpoint.BitmapLen(d.nChunks)
	l.phase("leaf-hash", device.Cost{
		HashBytes: int64(float64(d.dataLen) * d.opts.HashCostMultiplier),
		MemBytes:  int64(d.nChunks)*16 + int64(bitmapLen),
		ChunkOps:  int64(d.nChunks),
	})
	if len(d.changed) == 0 {
		// Steady state: nothing changed, so the diff is an all-zero
		// bitmap with no data. One shared zero bitmap stands in (the
		// record never mutates diff contents), and the gather is
		// charged what its empty sweeps cost, so the device clock is
		// unaffected by the shortcut.
		if d.zeroBitmap == nil {
			d.zeroBitmap = make([]byte, bitmapLen)
		}
		diff.Bitmap = d.zeroBitmap
		l.phase("gather", device.Cost{})
		return
	}
	diff.Bitmap = make([]byte, bitmapLen)
	firsts := d.regionFirsts[:0]
	for _, c := range d.changed {
		diff.Bitmap[c/8] |= 1 << (c % 8)
		firsts = firsts.Append(uint32(d.tree.LeafNode(int(c))))
	}
	d.regionFirsts = firsts
	// The PerThreadGather ablation is of the region gather; a gather
	// of single chunks is modeled coalesced either way.
	diff.Data = d.gather(data, firsts, l, false)
}

// checkpointList implements the List baseline (§3.2): identical to the
// Tree method's leaf-level de-duplication — including spatial and
// shifted temporal redundancy via the historical record — but with the
// metadata compaction omitted: every first-occurrence and
// shifted-duplicate chunk is stored as its own metadata entry. It
// returns the number of shifted leaves.
func (d *Deduplicator) checkpointList(data []byte, diff *checkpoint.Diff) (int, error) {
	l := d.resetLauncher("list-dedup")
	d.resetLabels(l)
	shift, err := d.leafPhase(l)
	if err != nil {
		return 0, err
	}

	// Emit one region per non-fixed leaf, already in chunk order.
	firsts := make(checkpoint.FirstList, 0, 4*(len(d.changed)-shift))
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
	diff.FirstOcur, diff.ShiftDupl = firsts, shifts
	diff.Data = d.gather(data, firsts, l, d.opts.PerThreadGather)
	return shift, nil
}
