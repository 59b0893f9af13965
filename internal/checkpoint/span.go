package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
)

// errNoBlockStore reports a block-mapped record in a store opened
// without a block store — a configuration problem (the `_blocks`
// sibling was moved or the wrong constructor was used), not data
// corruption, so it is deliberately NOT a *CorruptError: a scrub must
// abort rather than report every diff it cannot resolve as corrupt.
var errNoBlockStore = errors.New("checkpoint: block-mapped diff but no block store attached")

// ErrSpanMoved reports a read through a Span whose lineage has been
// rewritten since the span was taken (InstallSpan: a compaction, or a
// replica resync), or a span that starts below the baseline such a
// rewrite left. Nothing is wrong with the store; a reader recovers by
// taking a span of what the lineage holds now.
var ErrSpanMoved = errors.New("checkpoint: span moved")

// ReadScratch is the reusable memory of the diff read path: the raw
// record, its block references decoded, and the block store's own read
// scratch. The zero value is ready; a reader serving many diffs keeps
// one, so that reads allocate nothing once it has grown to the largest
// record.
type ReadScratch struct {
	rec    []byte
	refs   []blockstore.Ref
	blocks blockstore.ReadScratch
}

// Span is a consistent view of the stored checkpoints [from, to): every
// diff read through it comes from the one generation of the lineage the
// span was taken from, or fails with ErrSpanMoved. It holds no lock and
// no file, so a reader can take its time — a network stream to a slow
// peer — without holding up appends or compactions.
type Span struct {
	fs       *FileStore
	segment  uint32
	from, to int
}

// Span validates [from, to) against the lineage as it stands and pins
// the view to its current generation. A span that starts below the
// baseline is ErrSpanMoved (a fold took its start away); one that is
// empty or reaches past Len is out of range.
func (fs *FileStore) Span(from, to int) (Span, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	base, end := int(fs.man.Base), fs.endLocked()
	if from >= to || to > end {
		return Span{}, fmt.Errorf("checkpoint: span [%d,%d) out of range [%d,%d)", from, to, base, end)
	}
	if from < base {
		return Span{}, fmt.Errorf("%w: span [%d,%d) starts below the baseline of [%d,%d)", ErrSpanMoved, from, to, base, end)
	}
	return Span{fs: fs, segment: fs.man.segment, from: from, to: to}, nil
}

// Tail is the span [from, Len) of a reader that follows the lineage as
// it grows — empty when from is Len — pinned to the current generation
// like Span's. Follow extends it to each later length.
func (fs *FileStore) Tail(from int) (Span, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	base, end := int(fs.man.Base), fs.endLocked()
	if from < base {
		return Span{}, fmt.Errorf("%w: tail from %d starts below the baseline of [%d,%d)", ErrSpanMoved, from, base, end)
	}
	if from > end {
		return Span{}, fmt.Errorf("checkpoint: tail from %d out of range [%d,%d)", from, base, end)
	}
	return Span{fs: fs, segment: fs.man.segment, from: from, to: end}, nil
}

// Follow extends sp to the lineage's current length, still pinned to
// the generation sp was taken from: once the lineage has been rewritten
// since, it is ErrSpanMoved.
func (sp Span) Follow() (Span, error) {
	sp.fs.mu.Lock()
	defer sp.fs.mu.Unlock()
	if sp.fs.man.segment != sp.segment {
		return sp, fmt.Errorf("%w: the lineage was rewritten; it now holds [%d,%d)", ErrSpanMoved, sp.fs.man.Base, sp.fs.endLocked())
	}
	sp.to = sp.fs.endLocked()
	return sp, nil
}

// Bounds returns the checkpoint range [from, to) the span covers.
func (sp Span) Bounds() (from, to int) { return sp.from, sp.to }

// AppendDiff appends the canonical encoded bytes of checkpoint ck of the
// span to dst, verified in full as DiffBytes verifies them, and returns
// the extended slice and the CRC32C of what it appended (DiffChecksum of
// the diff); on error dst is returned as it was. sc carries the read's
// scratch memory between calls.
func (sp Span) AppendDiff(dst []byte, ck int, sc *ReadScratch) ([]byte, uint32, error) {
	if ck < sp.from || ck >= sp.to {
		return dst, 0, fmt.Errorf("checkpoint: diff %d outside span [%d,%d)", ck, sp.from, sp.to)
	}
	return sp.fs.appendDiff(dst, ck, &sp.segment, sc)
}

// DiffBytes returns the canonical encoded bytes of stored checkpoint ck
// in memory of their own — the single-diff form of Span.AppendDiff.
func (fs *FileStore) DiffBytes(ck int) ([]byte, error) {
	encoded, _, err := fs.appendDiff(nil, ck, nil, &ReadScratch{})
	return encoded, err
}

// appendDiff is the one read path of stored diffs. It reads the record
// of checkpoint ck back from the segment into sc and verifies both
// record checksums and the header against the index; a self-contained
// payload is appended to dst as is, a block-mapped container is
// reassembled — prefix verbatim, then every referenced block fetched
// from the shared store by one AppendBlocks, which verifies each one —
// so callers never see container bytes. It also returns the diff's
// CRC32C without a second pass over it: a self-contained payload's is
// the record's, which just verified, and a reassembled diff's is
// folded in as the prefix and each block land. Damage of either kind is a *CorruptError (errors.Is
// ErrCorrupt) naming ck. Only the read itself happens under the lock: a
// reader never sees a half-installed segment, and verification and
// block fetches do not hold up appends. With segment set, the read is
// refused with ErrSpanMoved unless that is still the live segment. A
// rewrite and a block-store GC can reclaim a record's blocks under the
// unlocked fetch, so a failed fetch stands only while the record's
// segment is still the live one; otherwise the read starts over.
//
// dst grows at most once, to a length taken from the record the index
// located (self-contained) or from a container whose checksum verified:
// never from a length nothing vouches for. A record that fits in dst's
// spare capacity is read there, where the diff will be written over
// it, and not into sc: a reader whose frame has room needs no scratch
// the size of a record.
func (fs *FileStore) appendDiff(dst []byte, ck int, segment *uint32, sc *ReadScratch) ([]byte, uint32, error) {
	fs.mu.Lock()
	base, end, live := int(fs.man.Base), fs.endLocked(), fs.man.segment
	if segment != nil && *segment != live {
		fs.mu.Unlock()
		return dst, 0, fmt.Errorf("%w: the lineage was rewritten under the read of diff %d; it now holds [%d,%d)", ErrSpanMoved, ck, base, end)
	}
	if ck < base || ck >= end {
		fs.mu.Unlock()
		return dst, 0, fmt.Errorf("checkpoint: diff %d out of range [%d,%d)", ck, base, end)
	}
	if fs.seg == nil {
		fs.mu.Unlock()
		return dst, 0, fs.failed
	}
	corrupt := func(err error) ([]byte, uint32, error) {
		return dst, 0, &CorruptError{Path: fs.dir, Ckpt: ck, Err: err}
	}
	loc := fs.recs[ck-base]
	if loc.state != recLive {
		fs.mu.Unlock()
		return corrupt(fmt.Errorf("%w: no record of the diff verified when the segment was opened", ErrChecksumMismatch))
	}
	need := recHdrSize + int(loc.len)
	buf := dst[len(dst):cap(dst)]
	if len(buf) < need {
		if cap(sc.rec) < need {
			sc.rec = make([]byte, need)
		}
		buf = sc.rec
	}
	raw, err := fs.hooks.ReadAt(fs.seg, buf[:need], loc.off)
	fs.mu.Unlock()
	if err != nil && err != io.EOF { // a short read fails verification below
		return dst, 0, fmt.Errorf("checkpoint: reading diff %d: %w", ck, err)
	}
	h, ok := segFormat.Parse(raw)
	if !ok || h.Kind != recDiff || int(h.A) != ck || h.Len != loc.len {
		return corrupt(fmt.Errorf("%w: record header at offset %d does not verify", ErrChecksumMismatch, loc.off))
	}
	payload := raw[recHdrSize:]
	if got := crc32.Checksum(payload, castagnoli); got != h.CRC {
		return corrupt(fmt.Errorf("%w: record says %08x, payload hashes to %08x", ErrChecksumMismatch, h.CRC, got))
	}
	if !IsBlockMapped(payload) {
		return append(dst, payload...), h.CRC, nil
	}
	prefix, refs, dataLen, err := parseBlockDiff(payload)
	if err != nil {
		return corrupt(err)
	}
	if fs.blocks == nil {
		return dst, 0, errNoBlockStore
	}
	sc.refs = appendRefs(sc.refs[:0], refs)
	out := append(slices.Grow(dst, len(prefix)+int(dataLen)), prefix...)
	// The record may have been read into dst's spare capacity, which the
	// prefix was just moved down over: from here on, only out and
	// sc.refs hold what the record held.
	out, crc, err := fs.blocks.AppendBlocks(out, crc32.Checksum(out[len(dst):], castagnoli), sc.refs, &sc.blocks)
	if err != nil {
		if fs.Manifest().segment != live {
			return fs.appendDiff(dst, ck, segment, sc)
		}
		return corrupt(err)
	}
	return out, crc, nil
}

// decodeVerified decodes the verified bytes of checkpoint ck, read into
// memory of their own through sc, and cross-checks the embedded id.
// Structural decode failures and id mismatches are *CorruptError like
// checksum failures: all three mean the diff cannot be restored.
func (fs *FileStore) decodeVerified(ck int, sc *ReadScratch) (*Diff, error) {
	encoded, _, err := fs.appendDiff(nil, ck, nil, sc)
	if err != nil {
		return nil, err
	}
	d, err := DecodeCheckpoint(ck, encoded)
	if err != nil {
		return nil, &CorruptError{Path: fs.dir, Ckpt: ck, Err: err}
	}
	return d, nil
}

// Load reads the stored lineage into a restorable Record holding the
// same [Base, Len).
func (fs *FileStore) Load() (*Record, error) {
	base := fs.Base()
	length := fs.Len()
	if length == base {
		return nil, fmt.Errorf("checkpoint: store %s is empty", fs.dir)
	}
	rec := NewRecord()
	var sc ReadScratch
	for ck := base; ck < length; ck++ {
		d, err := fs.decodeVerified(ck, &sc)
		if err != nil {
			return nil, err
		}
		if err := rec.Append(d); err != nil {
			return nil, err
		}
	}
	return rec, nil
}
