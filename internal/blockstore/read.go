package blockstore

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// Get reads and verifies one block into memory of its own: the read
// path of AppendBlocks with a list of one and a scratch it keeps.
func (s *Store) Get(ref Ref) (p []byte, err error) {
	err = s.read([]Ref{ref}, &ReadScratch{}, func(b []byte) { p = b })
	return p, err
}

// runCap bounds the bytes one pack read fetches, and so the read
// scratch: records that sit back to back in a pack are read together up
// to this many bytes (a single record larger than it is read alone).
const runCap = 256 << 10

// ReadScratch is the reusable memory of a read: where each reference
// resolved to, the records of one run, and the bytes of the packed
// block being handed out. The zero value is ready; a reader walking
// many diffs keeps one, so that reads allocate nothing once it has
// grown to the longest reference list, run and block.
type ReadScratch struct {
	locs  []loc
	run   []byte
	block []byte
}

// loc is what one reference of a read resolved to: the block's entry
// (ok false: the index holds none) and the handle of the pack it names
// (nil: the directory does not hold that pack).
type loc struct {
	f  *os.File
	e  entry
	ok bool
}

// resolveLocked fills locs with where the index places each of refs.
//
//ckptlint:locked mu
func (s *Store) resolveLocked(refs []Ref, locs []loc) {
	for i, r := range refs {
		e, ok := s.entries[r.ID]
		locs[i] = loc{f: s.packs[e.pack], e: e, ok: ok}
	}
}

// AppendBlocks appends the payloads of refs, in order, to dst and
// returns the extended slice, and crc, a running CRC32C (Castagnoli),
// extended with every payload as it lands; on error dst and crc are
// returned as they were and the error names the first block that could
// not be served. sc carries the read's scratch memory between calls.
func (s *Store) AppendBlocks(dst []byte, crc uint32, refs []Ref, sc *ReadScratch) ([]byte, uint32, error) {
	out, sum := dst, crc
	if err := s.read(refs, sc, func(p []byte) {
		out = append(out, p...)
		sum = crc32.Update(sum, castagnoli, p)
	}); err != nil {
		return dst, crc, err
	}
	return out, sum, nil
}

// read is the one read path of the store: it hands emit the payload of
// every one of refs, in order, each valid until the next. All of refs are
// resolved under one acquisition of the store's lock; records the index
// places back to back in one pack — what Intern writes for the new
// blocks of a batch — are fetched by one read per run of at most runCap
// bytes; and every record is verified before its bytes are handed out:
// record header, both CRCs, lengths AND a full digest recomputation
// over the block's bytes, unpacked first if the record is packed, must
// all agree with the index and the reference. Nothing read is cached,
// so rot that sets in later is caught by the next read.
// Every failure is typed (ErrCorrupt or ErrNotFound) so a caller can
// report or repair instead of restoring garbage.
func (s *Store) read(refs []Ref, sc *ReadScratch, emit func(p []byte)) error {
	if len(refs) == 0 {
		return nil
	}
	r := sc.reader(refs)
	var failed error
	var was entry
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		s.resolveLocked(refs[r.i:], r.locs[r.i:])
		r.hooks = s.hooks
		s.mu.Unlock()
		// The reads run unlocked, so a GC may have moved a block and
		// unlinked the pack under one: a failure only stands once the
		// index still points where the read went.
		if at := r.locs[r.i].e; failed != nil && at.pack == was.pack && at.off == was.off {
			return failed
		}
		for failed = nil; r.i < len(refs) && failed == nil; {
			var p []byte
			if p, failed = r.next(); failed == nil {
				emit(p)
			}
		}
		if failed == nil {
			return nil
		}
		was = r.locs[r.i].e
	}
}

// reader returns a runReader over refs that works in sc; the caller
// resolves its locs.
func (sc *ReadScratch) reader(refs []Ref) runReader {
	if cap(sc.locs) < len(refs) {
		sc.locs = make([]loc, len(refs))
	}
	return runReader{refs: refs, locs: sc.locs[:len(refs)], sc: sc}
}

// runReader hands out the verified payloads of refs in order, reading
// the records locs places them at one run at a time.
type runReader struct {
	refs  []Ref
	locs  []loc
	sc    *ReadScratch
	hooks *recframe.Hooks
	// i is the reference next hands out next. run holds what is left of
	// the run being handed out, as far as the read delivered it before it
	// ended with err. rec is the record the last call of next verified,
	// as it sits in the pack: header, ID, and what it stores.
	i   int
	run []byte
	err error
	rec []byte
}

// next returns the payload of reference i, valid until the next call,
// and steps past it; on error it stays where it is.
func (r *runReader) next() ([]byte, error) {
	ref, at := r.refs[r.i], r.locs[r.i]
	if len(r.run) == 0 {
		if err := r.readRun(); err != nil {
			return nil, err
		}
	}
	need := blockRecOverhead + int(at.e.stored)
	if got := len(r.run); got < need {
		r.run = nil
		if r.err == io.EOF {
			return nil, fmt.Errorf("%w: block %s truncated at %d of %d record bytes", ErrCorrupt, ref.ID, got, need)
		}
		return nil, fmt.Errorf("blockstore: reading block %s: %w", ref.ID, r.err)
	}
	p, err := r.verify(r.run[:need], at, ref.ID)
	if err != nil {
		r.run = nil
		return nil, err
	}
	r.rec, r.run = r.run[:need], r.run[need:]
	r.i++
	return p, nil
}

// readRun reads the run that starts at reference i: its record and
// those of the references after it for as long as each sits where the
// one before it ends and the run stays under runCap.
func (r *runReader) readRun() error {
	switch ref, at := r.refs[r.i], r.locs[r.i]; {
	case !at.ok:
		return fmt.Errorf("%w: %s", ErrNotFound, ref.ID)
	case at.f == nil:
		return fmt.Errorf("%w: block %s is indexed in pack %d, which the directory does not hold", ErrCorrupt, ref.ID, at.e.pack)
	case ref.Len != 0 && ref.Len != at.e.len:
		return fmt.Errorf("%w: block %s holds %d bytes, reference says %d", ErrCorrupt, ref.ID, at.e.len, ref.Len)
	}
	first := r.locs[r.i]
	size := blockRecOverhead + int(first.e.stored)
	for j := r.i + 1; j < len(r.refs); j++ {
		// A reference the index cannot place resolves to pack 0, which
		// no run is in; one that disagrees about the length starts a run
		// of its own, to fail there.
		ref, at := r.refs[j], r.locs[j]
		rec := blockRecOverhead + int(at.e.stored)
		if at.e.pack != first.e.pack || at.e.off != first.e.off+int64(size) || ref.Len != 0 && ref.Len != at.e.len || size+rec > runCap {
			break
		}
		size += rec
	}
	if cap(r.sc.run) < size {
		r.sc.run = make([]byte, size)
	}
	r.run, r.err = r.hooks.ReadAt(first.f, r.sc.run[:size], first.e.off)
	return nil
}

// verify checks raw, the bytes read from where at places block id,
// against the index and the reference — the one place a block record is
// judged — and returns the block's bytes: within raw, or unpacked into
// the scratch.
func (r *runReader) verify(raw []byte, at loc, id ID) (p []byte, err error) {
	h, ok := packFormat.Parse(raw)
	h.Off, p = at.e.off, raw[blockRecOverhead:]
	switch got := crc32.Checksum(raw[recframe.HdrSize:], castagnoli); {
	case !ok || h.Kind&^recDelta != recBlock && h.Kind&^recDelta != recMoved || recordEntry(h, at.e.pack) != at.e || ID(raw[recframe.HdrSize:blockRecOverhead]) != id:
		return nil, fmt.Errorf("%w: block %s: record header at %s offset %d does not verify", ErrCorrupt, id, at.f.Name(), at.e.off)
	case got != h.CRC:
		return nil, fmt.Errorf("%w: block %s CRC %08x, record %08x", ErrCorrupt, id, got, h.CRC)
	}
	switch {
	case h.Kind&recDelta != 0:
		r.sc.block, err = compress.AppendDeltaUnpacked(r.sc.block[:0], p, int(at.e.len))
		p = r.sc.block
	case at.e.packed():
		r.sc.block, err = compress.AppendUnpacked(r.sc.block[:0], p, int(at.e.len))
		p = r.sc.block
	}
	if err != nil {
		return nil, fmt.Errorf("%w: block %s: %w", ErrCorrupt, id, err)
	}
	if IDOf(p) != id {
		return nil, fmt.Errorf("%w: block %s bytes hash to a different ID", ErrCorrupt, id)
	}
	return p, nil
}

// Locate returns where block id lives on disk: its pack file and the
// extent of its record (header, ID and payload) within it — the seam
// through which tests and drills damage a specific block, the analogue
// of FileStore.Locate.
func (s *Store) Locate(id ID) (path string, off, length int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[id]
	f := s.packs[e.pack]
	if f == nil {
		return "", 0, 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return f.Name(), e.off, blockRecOverhead + int64(e.stored), nil
}
