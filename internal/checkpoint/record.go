package checkpoint

import (
	"fmt"
	"math"
	"sort"

	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// Record is the checkpoint lineage of one process: the ordered
// sequence of diffs for a fixed buffer geometry, with an index that
// resolves shifted-duplicate references (ckpt, node) to stored bytes.
// It speaks the checkpoint ids its diffs carry: a record whose first
// diff is checkpoint 50 — a lineage compacted to that baseline — holds
// [50, Len) and is indexed by those ids.
type Record struct {
	base      int // CkptID of diffs[0]
	chunkSize int
	dataLen   int
	geom      *merkle.Tree
	diffs     []*Diff
	// regions holds, for each FirstOcur entry of a List or Tree diff,
	// the chunks its data section holds before that region. Every region
	// but the last covers whole chunks (indexRegions checks it), so the
	// count times chunkSize is the region's byte offset; its chunk range
	// is FirstOcur's node, recomputed when a shift needs it.
	regions [][]uint32
	plain   [][]byte // decompressed data sections (alias Diff.Data when raw)
	slabs   [][]byte // donated memory Keep carves from; len is the part carved
	pool    *parallel.Pool
}

// NewRecord creates an empty lineage.
func NewRecord() *Record { return &Record{} }

// SetPool enables parallel region assembly during Apply/Restore — the
// §5 future-work "scalable reconstruction" extension. All emitted
// regions of one diff cover disjoint byte ranges and same-checkpoint
// shift sources are first-occurrence regions (written in the preceding
// pass), so each pass parallelizes race-free. Restored bytes are
// identical with or without a pool.
func (r *Record) SetPool(p *parallel.Pool) { r.pool = p }

// forRegions runs body over [0, n), on the pool when one is set.
func (r *Record) forRegions(n int, body func(i int)) {
	if r.pool == nil || n < 16 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	r.pool.For(n, body)
}

// Base returns the id of the record's first checkpoint, fixed by the
// first Append (0 when empty).
func (r *Record) Base() int { return r.base }

// Len returns one past the id of the record's last checkpoint: the
// record holds [Base, Len).
func (r *Record) Len() int { return r.base + len(r.diffs) }

// Diff returns the stored diff of checkpoint k in [Base, Len).
func (r *Record) Diff(k int) *Diff { return r.diffs[k-r.base] }

// ChunkSize returns the chunk geometry of the lineage (0 when empty).
func (r *Record) ChunkSize() int { return r.chunkSize }

// DataLen returns the checkpointed buffer length (0 when empty).
func (r *Record) DataLen() int { return r.dataLen }

// TotalBytes returns the cumulative serialized size of all diffs: the
// space utilization of the entire checkpoint record (§1).
func (r *Record) TotalBytes() int64 {
	var total int64
	for _, d := range r.diffs {
		total += d.TotalBytes()
	}
	return total
}

// Donate gives the record buffers nothing else references any more — a
// reader's outgrown frame buffers (wire.ReadFrameSpare) — for Keep to
// carve sections from.
func (r *Record) Donate(bufs ...[]byte) {
	for _, b := range bufs {
		r.slabs = append(r.slabs, b[:0])
	}
}

// Keep makes d, decoded by reference from encoded in a reader's buffer
// that is about to be reused, last as long as the record, and reports
// whether it kept that buffer. A diff carrying a whole image that fills
// at least half the buffer (a baseline) keeps it, and the caller gives
// the buffer up; the increments behind it are a fraction of its size.
// Any other diff has its sections — region lists, bitmap and data —
// copied into the first donated slab with room for all of them, or into
// one exact-size allocation when none has, each section capped at its
// length so an append to one never writes into its neighbour.
func (r *Record) Keep(d *Diff, encoded []byte) bool {
	if len(encoded) >= cap(encoded)/2 && 2*uint64(len(d.Data)) >= d.DataLen {
		return true
	}
	d.moveSections(r.carve(d.sectionBytes()))
	return false
}

// carve returns n bytes of the first slab with room for them, bumping
// its carved length, or a fresh allocation of exactly n.
func (r *Record) carve(n int) []byte {
	for i, s := range r.slabs {
		if off := len(s); cap(s)-off >= n {
			r.slabs[i] = s[:off+n]
			return s[off : off+n : off+n]
		}
	}
	return make([]byte, n)
}

// Append adds the next diff to the lineage and indexes its
// first-occurrence regions so later checkpoints can reference them.
// The first diff fixes the geometry and, by its own CkptID, the
// baseline; every later one must carry the id Len.
func (r *Record) Append(d *Diff) error {
	// Geometry sanity first: every index, span and allocation below is
	// derived from DataLen and ChunkSize, so a decoded diff must not be
	// able to smuggle in values that wrap int arithmetic or divide by
	// zero (found by FuzzRestore).
	if d.DataLen > math.MaxInt64-math.MaxUint32 {
		return fmt.Errorf("checkpoint: diff %d data length %d exceeds supported range", d.CkptID, d.DataLen)
	}
	if d.Method != MethodFull && d.ChunkSize == 0 {
		return fmt.Errorf("checkpoint: diff %d (method %v) has zero chunk size", d.CkptID, d.Method)
	}
	if len(r.diffs) == 0 {
		if d.DataLen == 0 && d.Method != MethodFull {
			return fmt.Errorf("checkpoint: first diff has zero data length")
		}
		r.base = int(d.CkptID)
		r.chunkSize = int(d.ChunkSize)
		r.dataLen = int(d.DataLen)
		if r.chunkSize > 0 {
			r.geom = merkle.NewGeometry(merkle.NumChunks(r.dataLen, r.chunkSize))
		}
	} else {
		if int(d.DataLen) != r.dataLen {
			return fmt.Errorf("checkpoint: diff %d data length %d != record %d",
				d.CkptID, d.DataLen, r.dataLen)
		}
		if int(d.ChunkSize) != r.chunkSize {
			return fmt.Errorf("checkpoint: diff %d chunk size %d != record %d",
				d.CkptID, d.ChunkSize, r.chunkSize)
		}
	}
	if int(d.CkptID) != r.Len() {
		return fmt.Errorf("checkpoint: diff id %d out of order (record holds [%d,%d))",
			d.CkptID, r.base, r.Len())
	}
	plain := d.Data
	if d.DataCodec != 0 {
		codec, err := compress.ByID(d.DataCodec)
		if err != nil {
			return fmt.Errorf("checkpoint: diff %d: %w", d.CkptID, err)
		}
		plain, err = codec.Decompress(d.Data, int(d.RawDataLen))
		if err != nil {
			return fmt.Errorf("checkpoint: diff %d data section: %w", d.CkptID, err)
		}
	}
	idx, err := r.indexRegions(d, plain)
	if err != nil {
		return err
	}
	r.diffs = append(r.diffs, d)
	r.regions = append(r.regions, idx)
	r.plain = append(r.plain, plain)
	return nil
}

// indexRegions builds the first-occurrence region index of d and
// validates that the data section has exactly the declared bytes.
func (r *Record) indexRegions(d *Diff, plain []byte) ([]uint32, error) {
	switch d.Method {
	case MethodFull:
		if int(d.DataLen) != len(plain) {
			return nil, fmt.Errorf("checkpoint: full diff %d has %d data bytes, want %d",
				d.CkptID, len(plain), d.DataLen)
		}
		return nil, nil
	case MethodBasic:
		// Basic diffs are never referenced by shifted duplicates, but
		// Apply walks the bitmap, so its length and the bytes it claims
		// must be validated here (found by FuzzRestore: a short bitmap
		// read out of range, a long one replayed stale chunks).
		nChunks := merkle.NumChunks(r.dataLen, r.chunkSize)
		if len(d.Bitmap) != BitmapLen(nChunks) {
			return nil, fmt.Errorf("checkpoint: basic diff %d bitmap %d bytes, want %d",
				d.CkptID, len(d.Bitmap), BitmapLen(nChunks))
		}
		var want int64
		for c := 0; c < nChunks; c++ {
			if !BitmapGet(d.Bitmap, c) {
				continue
			}
			hi := min((c+1)*r.chunkSize, r.dataLen)
			want += int64(hi - c*r.chunkSize)
		}
		if want != int64(len(plain)) {
			return nil, fmt.Errorf("checkpoint: basic diff %d data section %d bytes, bitmap covers %d",
				d.CkptID, len(plain), want)
		}
		return nil, nil
	case MethodList, MethodTree:
		// Shift references are resolved lazily during Apply; reject
		// out-of-range nodes and sources outside [Base, CkptID] now so
		// replay can only fail with an error, never an out-of-bounds
		// copy.
		for j := range d.ShiftDupl.Len() {
			sr := d.ShiftDupl.At(j)
			if int(sr.Node) >= r.geom.NumNodes || int(sr.SrcNode) >= r.geom.NumNodes {
				return nil, fmt.Errorf("checkpoint: diff %d shift region node %d<-%d out of range",
					d.CkptID, sr.Node, sr.SrcNode)
			}
			if sr.SrcCkpt > d.CkptID {
				return nil, fmt.Errorf("checkpoint: diff %d shift source checkpoint %d is in the future",
					d.CkptID, sr.SrcCkpt)
			}
			if int(sr.SrcCkpt) < r.base {
				return nil, fmt.Errorf("checkpoint: diff %d shift source checkpoint %d is below the record's baseline %d",
					d.CkptID, sr.SrcCkpt, r.base)
			}
			srcOff, srcEnd := r.geom.NodeSpan(int(sr.SrcNode), r.chunkSize, r.dataLen)
			dstOff, dstEnd := r.geom.NodeSpan(int(sr.Node), r.chunkSize, r.dataLen)
			if n, m := srcEnd-srcOff, dstEnd-dstOff; n < m && (n == 0 || m%n != 0) {
				return nil, fmt.Errorf("checkpoint: diff %d shift source node %d (%d bytes) does not tile destination %d (%d bytes)",
					d.CkptID, sr.SrcNode, n, sr.Node, m)
			}
		}
		idx := make([]uint32, d.FirstOcur.Len())
		var chunks, off int64
		prevLo := 0
		for i := range idx {
			node := d.FirstOcur.At(i)
			if int(node) >= r.geom.NumNodes {
				return nil, fmt.Errorf("checkpoint: diff %d region node %d out of range", d.CkptID, node)
			}
			lo, hi := r.geom.LeafRange(int(node))
			if lo < prevLo {
				return nil, fmt.Errorf("checkpoint: diff %d regions not in chunk order", d.CkptID)
			}
			// A region after the one holding the short tail chunk would
			// sit at a byte offset its chunk count does not give.
			if off != chunks*int64(r.chunkSize) {
				return nil, fmt.Errorf("checkpoint: diff %d region node %d follows a short chunk", d.CkptID, node)
			}
			if chunks > math.MaxUint32 {
				return nil, fmt.Errorf("checkpoint: diff %d region node %d starts past chunk %d, beyond the 32-bit chunk range", d.CkptID, node, uint32(math.MaxUint32))
			}
			idx[i], prevLo = uint32(chunks), lo
			spanOff, spanEnd := r.geom.NodeSpan(int(node), r.chunkSize, r.dataLen)
			chunks += int64(hi - lo)
			off += int64(spanEnd - spanOff)
		}
		if off != int64(len(plain)) {
			return nil, fmt.Errorf("checkpoint: diff %d data section %d bytes, regions cover %d",
				d.CkptID, len(plain), off)
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("checkpoint: unknown method %v", d.Method)
	}
}

// resolve returns the stored bytes of tree node `node` as of
// checkpoint ck. The node must lie inside a first-occurrence region of
// that checkpoint — which Algorithm 1 guarantees for every entry of
// the historical record of unique hashes — or ck must be a whole image.
func (r *Record) resolve(ck, node uint32) ([]byte, error) {
	if int(ck) < r.base || int(ck) >= r.Len() {
		return nil, fmt.Errorf("checkpoint: reference to checkpoint %d outside the record's [%d,%d)", ck, r.base, r.Len())
	}
	if r.geom == nil || int(node) >= r.geom.NumNodes {
		return nil, fmt.Errorf("checkpoint: node %d not stored in checkpoint %d", node, ck)
	}
	spanOff, spanEnd := r.geom.NodeSpan(int(node), r.chunkSize, r.dataLen)
	d, data := r.diffs[int(ck)-r.base], r.plain[int(ck)-r.base]
	if d.Method == MethodFull {
		return data[spanOff:spanEnd], nil
	}
	lo, hi := r.geom.LeafRange(int(node))
	regions := r.regions[int(ck)-r.base]
	// Find the last region starting at or before chunk lo.
	i := sort.Search(len(regions), func(i int) bool {
		regLo, _ := r.geom.LeafRange(int(d.FirstOcur.At(i)))
		return regLo > lo
	}) - 1
	if i < 0 {
		return nil, fmt.Errorf("checkpoint: node %d not stored in checkpoint %d", node, ck)
	}
	regLo, regHi := r.geom.LeafRange(int(d.FirstOcur.At(i)))
	if hi > regHi {
		return nil, fmt.Errorf("checkpoint: node %d (chunks [%d,%d)) exceeds stored region [%d,%d) of checkpoint %d",
			node, lo, hi, regLo, regHi, ck)
	}
	byteOff := (int64(regions[i]) + int64(lo-regLo)) * int64(r.chunkSize)
	n := int64(spanEnd - spanOff)
	if byteOff+n > int64(len(data)) {
		return nil, fmt.Errorf("checkpoint: region bytes [%d,%d) beyond data section of checkpoint %d",
			byteOff, byteOff+n, ck)
	}
	return data[byteOff : byteOff+n], nil
}

// RegionBytes returns the stored (uncompressed) bytes of tree node
// `node` as of checkpoint ck — the §2.4 collision-mitigation path and
// external consumers use it to read region content without a full
// restore.
func (r *Record) RegionBytes(ck, node uint32) ([]byte, error) {
	return r.resolve(ck, node)
}

// Apply replays checkpoint k's diff onto state, which must hold the
// reconstruction of checkpoint k-1 (or anything, for a diff that covers
// the whole buffer: a MethodFull baseline, or the first checkpoint of a
// lineage).
func (r *Record) Apply(state []byte, k int) error {
	if k < r.base || k >= r.Len() {
		return fmt.Errorf("checkpoint: apply index %d out of range [%d,%d)", k, r.base, r.Len())
	}
	if len(state) != r.dataLen {
		return fmt.Errorf("checkpoint: state length %d != record %d", len(state), r.dataLen)
	}
	i := k - r.base
	d, data := r.diffs[i], r.plain[i]
	switch d.Method {
	case MethodFull:
		copy(state, data)
		return nil
	case MethodBasic:
		var off int
		nChunks := merkle.NumChunks(r.dataLen, r.chunkSize)
		for c := 0; c < nChunks; c++ {
			if !BitmapGet(d.Bitmap, c) {
				continue
			}
			lo := c * r.chunkSize
			hi := lo + r.chunkSize
			if hi > r.dataLen {
				hi = r.dataLen
			}
			n := copy(state[lo:hi], data[off:])
			off += n
		}
		if off != len(data) {
			return fmt.Errorf("checkpoint: basic diff %d consumed %d of %d data bytes", k, off, len(data))
		}
		return nil
	case MethodList, MethodTree:
		// Pass 1: first occurrences (new bytes). Regions are disjoint,
		// so the copies parallelize.
		r.forRegions(d.FirstOcur.Len(), func(j int) {
			spanOff, spanEnd := r.geom.NodeSpan(int(d.FirstOcur.At(j)), r.chunkSize, r.dataLen)
			off := int(r.regions[i][j]) * r.chunkSize
			copy(state[spanOff:spanEnd], data[off:off+spanEnd-spanOff])
		})
		// Pass 2: shifted duplicates. Same-checkpoint references read
		// from the state (their source regions were written in pass
		// 1); older references read from the stored diff bytes. A
		// source shorter than its destination is a fill, tiled across
		// it. Destinations are disjoint and sources are never shifted
		// destinations, so this pass parallelizes too.
		errs := make([]error, d.ShiftDupl.Len())
		r.forRegions(d.ShiftDupl.Len(), func(j int) {
			s := d.ShiftDupl.At(j)
			dstOff, dstEnd := r.geom.NodeSpan(int(s.Node), r.chunkSize, r.dataLen)
			var src []byte
			if s.SrcCkpt == d.CkptID {
				srcOff, srcEnd := r.geom.NodeSpan(int(s.SrcNode), r.chunkSize, r.dataLen)
				src = state[srcOff:srcEnd]
			} else {
				var err error
				if src, err = r.resolve(s.SrcCkpt, s.SrcNode); err != nil {
					errs[j] = fmt.Errorf("checkpoint: diff %d shift region node %d: %w", k, s.Node, err)
					return
				}
			}
			if !tile(state[dstOff:dstEnd], src) {
				errs[j] = fmt.Errorf("checkpoint: diff %d shift source node %d (%d bytes) does not tile destination %d (%d bytes)",
					k, s.SrcNode, len(src), s.Node, dstEnd-dstOff)
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// Pass 3: fixed duplicates need no action — state already
		// carries the previous checkpoint's bytes.
		return nil
	default:
		return fmt.Errorf("checkpoint: unknown method %v", d.Method)
	}
}

// tile writes src over dst: its prefix when src is at least as long,
// else src repeated — one copy, then the written part doubled until dst
// is full. It writes nothing and reports false when a shorter src does
// not divide dst.
//
//ckptlint:noalloc
func tile(dst, src []byte) bool {
	if len(src) >= len(dst) {
		copy(dst, src)
		return true
	}
	if len(src) == 0 || len(dst)%len(src) != 0 {
		return false
	}
	for n := copy(dst, src); n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
	return true
}

// Restore reconstructs the buffer as of checkpoint k by replaying
// diffs Base..k ("start from the first-time occurrences, then fill the
// fixed duplicates and finally assemble the shifted duplicates", §2.2).
func (r *Record) Restore(k int) ([]byte, error) {
	if k < r.base || k >= r.Len() {
		return nil, fmt.Errorf("checkpoint: restore index %d out of range [%d,%d)", k, r.base, r.Len())
	}
	state := make([]byte, r.dataLen)
	for i := r.base; i <= k; i++ {
		if err := r.Apply(state, i); err != nil {
			return nil, err
		}
	}
	return state, nil
}

// RestoreLatest reconstructs the most recent checkpoint.
func (r *Record) RestoreLatest() ([]byte, error) {
	return r.Restore(r.Len() - 1)
}
