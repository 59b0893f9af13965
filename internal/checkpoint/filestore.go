package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// FileStore persists a checkpoint lineage as a directory holding ONE
// append-only segment file (`segment-NNNNNN.log`) plus an optional
// lifecycle manifest (`lineage.manifest`) that names it. The segment
// is a sequence of CRC-framed records (see segment.go), one per stored
// diff, whose payload is the diff's canonical encoding or — when a
// block store is attached — the block-mapped container whose data
// section lives in that store. The log IS the store: there are no
// per-checkpoint files and nothing is written twice.
//
// Every mutation is one of two primitives, both written by the
// protocol of internal/recframe. Appends (Append, AppendBatch,
// ReinstallDiff) add one frame of diff records to the end of the
// segment with one recframe.Log.Append — one write, one fsync; a frame
// that did not complete is rolled back, or dropped by the next open, as
// a whole. InstallSpan — compaction and replica resync — writes a
// complete fresh segment, created durably, and switches to it with the
// manifest rename (recframe.Commit); whichever segment the manifest
// does not name is debris. Tests reach every failure point through one
// recframe.Hooks (SetHooks).
//
// An in-memory index, checkpoint id -> record extent, is built by
// scanning the segment on open; per id the last record wins. The
// restorable range is [Base(), Len()); records carry absolute ids.
// Reads go back to the disk and re-verify both record checksums on
// every call — nothing read is cached, so rot that sets in after a
// successful read is still caught by the next one — and an id whose
// record the scan found damaged stays in range and fails its reads
// typed the same way: damage never shortens a lineage behind the
// caller's back.
//
// Opening a store only reads. Debris of an interrupted mutation is
// ignored by the open and removed by the first write, which is also
// what creates the directory: opening a name that was never written
// leaves no trace on disk.
//
// Every method holds an internal mutex, so a FileStore is safe for
// concurrent use within one process and two goroutines racing to
// append the same next id yield exactly one winner. Two FileStores
// writing the same directory — or two processes — are NOT coordinated;
// give each lineage a single writer, as the ckptd server does.
//
// This is the bottom of the paper's storage hierarchy (§2.3): what the
// asynchronous runtime eventually flushes to the parallel file system.
type FileStore struct {
	dir string

	// mu protects everything below but blocks. Helpers that run with it
	// held carry a //ckptlint:locked mu precondition, which the guardedby
	// analyzer verifies at every call site.
	mu  sync.Mutex
	man Manifest //ckptlint:guardedby mu

	// seg is the live segment's file, what reads go through (nil while
	// the lineage has none), and segSize its committed length. Until the
	// first write, seg is open read-only, the directory may still hold
	// debris and log is nil; from then on log is the segment's write
	// handle — the same file — and segSize follows its committed length.
	seg     *os.File      //ckptlint:guardedby mu
	segSize int64         //ckptlint:guardedby mu
	log     *recframe.Log //ckptlint:guardedby mu

	// recs[i] is the index entry of checkpoint man.Base+i.
	recs []recLoc //ckptlint:guardedby mu

	// stage is the write path's staging buffer (writeRecordsLocked).
	// It belongs to the store rather than to a sync.Pool, which a GC
	// empties, and which under the race detector drops Puts at random.
	stage []byte //ckptlint:guardedby mu

	// failed, once set, fails every later write: the store was closed,
	// its log fail-stopped, a commit's durability is unknown, or a
	// simulated crash hit it or its block store, and the directory is
	// only trustworthy again after a reopen. Reads keep being served.
	failed error //ckptlint:guardedby mu

	// hooks is the fault seam the store's I/O runs through; nil in
	// production.
	hooks *recframe.Hooks //ckptlint:guardedby mu

	// blocks, when non-nil, is the shared content-addressed block store
	// the data sections of new diffs are interned into; nil means new
	// records are self-contained. Records of either shape are readable
	// either way. Immutable once the store is shared. ownBlocks says
	// Close should close it (NewFileStore auto-attached it).
	blocks    *blockstore.Store
	ownBlocks bool //ckptlint:guardedby mu
}

// recLoc is one index entry: the state of a checkpoint id and, while
// it is live, where its winning record sits in the segment.
type recLoc struct {
	off   int64  // of the record header
	len   uint32 // of the payload
	state recState
}

// recState is what the segment says about a checkpoint id.
type recState byte

const (
	// recDamaged (the zero value): later records say the id was stored,
	// but no record of it verifies. It stays in range and its reads
	// fail with a *CorruptError.
	recDamaged recState = iota
	recLive             // a verified diff record holds the id
)

// oldLayoutSuffix is the per-checkpoint diff file extension of the
// layout ErrOldLayout refuses.
const oldLayoutSuffix = ".gckp"

// segmentName returns the file name of segment number seq.
func segmentName(seq uint32) string { return fmt.Sprintf("segment-%06d.log", seq) }

// SetHooks installs the fault seam the store's I/O runs through (see
// recframe.Hooks); nil removes it. The attached block store takes its
// own. Test-only; production stores never call it.
func (fs *FileStore) SetHooks(h *recframe.Hooks) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hooks = h
}

// diedLocked passes err through; a simulated crash — at one of the
// lineage's own seams or inside its block store: a dead process is dead
// in both — stops the store, debris and all.
//
//ckptlint:locked mu
func (fs *FileStore) diedLocked(err error) error {
	if fs.failed == nil && errors.Is(err, ErrSimulatedCrash) {
		fs.failed = err
	}
	return err
}

// NewFileStore opens a lineage directory, which need not exist yet.
//
// If a sibling block store directory exists (<parent>/_blocks, the
// layout a ckptd root uses), it is attached read-only — no lock taken,
// no torn tail cut — so tools read block-mapped diffs out of a server
// root, live or stopped, and never write it: a write through the store
// fails with blockstore.ErrReadOnly before it touches the directory.
// Close closes the attached store. A plain directory with no sibling
// stays fully self-contained.
func NewFileStore(dir string) (*FileStore, error) {
	var bs *blockstore.Store
	sibling := filepath.Join(filepath.Dir(dir), blockstore.DirName)
	if st, err := os.Stat(sibling); err == nil && st.IsDir() {
		if bs, err = blockstore.Open(sibling, blockstore.Options{ReadOnly: true}); err != nil {
			return nil, err
		}
	}
	fs, err := newFileStore(dir, bs, bs != nil)
	if err != nil && bs != nil {
		bs.Close()
	}
	return fs, err
}

// NewFileStoreWith opens a lineage directory whose new diffs intern
// their data sections into the shared block store bs — the
// multi-lineage configuration of the ckptd server, where one store
// de-duplicates across every lineage and tenant. The caller retains
// ownership of bs; closing the FileStore does not close it. bs may be
// nil: a self-contained lineage, whatever sits beside it.
func NewFileStoreWith(dir string, bs *blockstore.Store) (*FileStore, error) {
	return newFileStore(dir, bs, false)
}

// newFileStore loads the manifest, scans the segment it names and
// builds the index. It writes nothing, and a directory that does not
// exist is an empty lineage. A directory of the replaced
// file-per-checkpoint layout is refused with ErrOldLayout, and one
// whose manifest names a segment it does not hold with ErrCorrupt: a
// manifest exists only once an InstallSpan wrote the segment it names,
// so that is damage, never an empty lineage.
func newFileStore(dir string, bs *blockstore.Store, own bool) (*FileStore, error) {
	fs := &FileStore{dir: dir, blocks: bs}
	// Nothing shares the store yet; holding mu keeps the precondition of
	// the locked helpers the scan runs through true.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ownBlocks = own
	entries, _ := os.ReadDir(dir) // a missing directory has none
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), oldLayoutSuffix) {
			return nil, fmt.Errorf("%w: %s", ErrOldLayout, filepath.Join(dir, e.Name()))
		}
	}
	man, err := ReadManifestFile(filepath.Join(dir, ManifestFileName))
	switch {
	case err == nil:
		fs.man = *man
	case !os.IsNotExist(err):
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, segmentName(fs.man.segment)))
	switch {
	case os.IsNotExist(err) && man != nil:
		return nil, fmt.Errorf("%w: the manifest of %s names %s at baseline %d, which the directory does not hold",
			ErrCorrupt, dir, segmentName(fs.man.segment), fs.man.Base)
	case os.IsNotExist(err):
		return fs, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: opening store %s: %w", dir, err)
	}
	if err := fs.indexLocked(f); err != nil {
		f.Close()
		return nil, err
	}
	fs.seg = f
	return fs, nil
}

// indexLocked scans segment f and rebuilds the index from it: in file
// order the last record of an id wins, and an id below the highest end
// any record declares that no surviving record covers is damaged — as
// is one whose last record is a tombstone, which earlier builds wrote
// and this one only reads.
//
//ckptlint:locked mu
func (fs *FileStore) indexLocked(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("checkpoint: scanning %s: %w", f.Name(), err)
	}
	recs, committed, err := segFormat.Scan(f, st.Size(), false)
	if err != nil {
		return fmt.Errorf("checkpoint: scanning %s: %w", f.Name(), err)
	}
	base := fs.man.Base
	fs.recs, fs.segSize = fs.recs[:0], committed
	for _, r := range recs {
		// Every id in [base, end) was written to this segment at least
		// once, which bounds end by what the file can hold.
		if r.A < base || int64(r.B-base) > committed/recHdrSize {
			return fmt.Errorf("checkpoint: %s: record of checkpoint %d (end %d) does not belong to a segment of %d bytes at baseline %d",
				f.Name(), r.A, r.B, committed, base)
		}
		for len(fs.recs) < int(r.B-base) {
			fs.recs = append(fs.recs, recLoc{})
		}
		loc := recLoc{off: r.Off, len: r.Len, state: recLive}
		if r.Kind == recTombstone {
			loc = recLoc{}
		}
		fs.recs[r.A-base] = loc
	}
	return nil
}

// endLocked returns one past the highest stored id: Len.
//
//ckptlint:locked mu
func (fs *FileStore) endLocked() int { return int(fs.man.Base) + len(fs.recs) }

// Close releases the segment and the auto-attached block store, if
// any. A FileStore opened with NewFileStoreWith leaves the shared
// store to its owner. Idempotent; a closed store fails every write.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var err error
	if fs.seg != nil {
		err = fs.seg.Close()
		fs.seg = nil
	}
	if fs.failed == nil {
		fs.failed = fmt.Errorf("checkpoint: store %s is closed", fs.dir)
	}
	if fs.ownBlocks && fs.blocks != nil {
		fs.ownBlocks = false
		if berr := fs.blocks.Close(); err == nil {
			err = berr
		}
	}
	return err
}

// Dir returns the store directory.
func (fs *FileStore) Dir() string { return fs.dir }

// Base returns the baseline index: the first restorable checkpoint.
func (fs *FileStore) Base() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return int(fs.man.Base)
}

// Manifest returns a copy of the current lifecycle manifest.
func (fs *FileStore) Manifest() Manifest {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.man
}

// Len returns one past the last stored checkpoint index: the stored
// diffs span [Base(), Len()), damaged ones included.
func (fs *FileStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.endLocked()
}

// TotalBytes returns the on-disk size of the lineage's segment.
func (fs *FileStore) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.segSize
}

// Locate returns where stored checkpoint ck lives on disk: the segment
// file and the extent of its record (header and payload) within it —
// the seam through which tests and drills damage a specific diff.
func (fs *FileStore) Locate(ck int) (path string, off, length int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i := ck - int(fs.man.Base)
	if i < 0 || i >= len(fs.recs) || fs.recs[i].state != recLive || fs.seg == nil {
		return "", 0, 0, fmt.Errorf("checkpoint: no stored diff %d in [%d,%d)", ck, fs.man.Base, fs.endLocked())
	}
	return fs.seg.Name(), fs.recs[i].off, recHdrSize + int64(fs.recs[i].len), nil
}

// Append stores diff d as the next checkpoint: AppendBatch of one.
func (fs *FileStore) Append(d *Diff) error {
	_, err := fs.AppendBatch([]*Diff{d})
	return err
}

// AppendBatch appends a contiguous run of diffs as one frame: one
// block-store call interns every data section (blocks and their
// references are durable before the records that reference them),
// one write adds the records to the segment, one fsync makes
// the whole batch durable — the group commit behind the server's
// stream path, and the only append path there is.
//
// The first id must equal Len() and the run must be contiguous; a
// shifted duplicate must not reference a checkpoint below the
// baseline — after a compaction those bytes are gone, so a stale
// pusher that still holds pre-compaction history gets a clean error
// instead of storing an unrestorable diff.
//
// The batch commits atomically: appended is len(ds) and every diff is
// durable, or it is 0 and nothing was committed — the segment is
// rolled back to its previous length (a crash instead leaves a torn
// frame the next open discards); a block-store GC reclaims the blocks
// just interned.
func (fs *FileStore) AppendBatch(ds []*Diff) (appended int, err error) {
	if len(ds) == 0 {
		return 0, nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := checkRun(ds, fs.endLocked(), fs.man.Base); err != nil {
		return 0, fmt.Errorf("checkpoint: append to [%d,%d): %w", fs.man.Base, fs.endLocked(), err)
	}
	if err := fs.appendFrameLocked(ds); err != nil {
		return 0, err
	}
	return len(ds), nil
}

// checkRun verifies that ds carry the contiguous ids first, first+1,
// ... and that no shifted duplicate references history below base.
func checkRun(ds []*Diff, first int, base uint32) error {
	for i, d := range ds {
		if int(d.CkptID) != first+i || d.CkptID == math.MaxUint32 {
			return fmt.Errorf("diff at offset %d carries id %d, want %d", i, d.CkptID, first+i)
		}
		for j := range d.ShiftDupl.Len() {
			if src := d.ShiftDupl.At(j).SrcCkpt; src < base {
				return fmt.Errorf("diff %d references checkpoint %d, pruned below baseline %d", d.CkptID, src, base)
			}
		}
	}
	return nil
}

// prepareLocked readies the directory for its first write since the
// open: it creates the directory, removes what an interrupted mutation
// can have left — a staged manifest, the segment an uncommitted install
// was writing (the next number), the one a committed install had not
// deleted yet (the previous number) — and takes the live segment over
// for writing: created durably if the lineage has none (recframe.Create),
// else with a torn frame at its end cut off (recframe.Resume). Over a
// read-only block store it fails first, with blockstore.ErrReadOnly.
//
//ckptlint:locked mu
func (fs *FileStore) prepareLocked() error {
	if fs.failed != nil || fs.log != nil {
		return fs.failed
	}
	if fs.blocks != nil && fs.blocks.ReadOnly() {
		return fmt.Errorf("checkpoint: store %s: %w", fs.dir, blockstore.ErrReadOnly)
	}
	if err := os.MkdirAll(fs.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: creating store %s: %w", fs.dir, err)
	}
	seq := fs.man.segment
	debris := []string{ManifestFileName + recframe.TmpSuffix, segmentName(seq + 1)}
	if seq > 0 {
		debris = append(debris, segmentName(seq-1))
	}
	for _, name := range debris {
		if err := os.Remove(filepath.Join(fs.dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: removing stale %s: %w", name, err)
		}
	}
	path := filepath.Join(fs.dir, segmentName(seq))
	var log *recframe.Log
	var err error
	if fs.seg == nil {
		log, err = recframe.Create(fs.hooks, path)
	} else {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_RDWR, 0); err == nil {
			if log, err = recframe.Resume(f, fs.segSize); err != nil {
				f.Close()
			}
		}
	}
	if err != nil {
		return fs.diedLocked(fmt.Errorf("checkpoint: preparing segment for writing: %w", err))
	}
	if fs.seg != nil {
		fs.seg.Close()
	}
	fs.seg, fs.log = log.File(), log
	return nil
}

// internLocked interns the data sections of ds into the attached block
// store with one call and returns the references, all of them, and how
// many belong to each diff. Without a block store both are nil.
//
//ckptlint:locked mu
func (fs *FileStore) internLocked(ds []*Diff) (refs []blockstore.Ref, counts []int, err error) {
	if fs.blocks == nil {
		return nil, nil, nil
	}
	var chunks [][]byte
	counts = make([]int, len(ds))
	for i, d := range ds {
		cs := fs.blocks.Split(d.Data)
		counts[i] = len(cs)
		chunks = append(chunks, cs...)
	}
	if refs, err = fs.blocks.Intern(chunks); err != nil {
		return nil, nil, fs.diedLocked(fmt.Errorf("checkpoint: interning diffs [%d,%d): %w", ds[0].CkptID, int(ds[0].CkptID)+len(ds), err))
	}
	return refs, counts, nil
}

// writeRecordsLocked is the one encoder of segment records: it writes
// one diff record per diff to w and returns where each landed relative
// to w's start. With frame set the records form ONE
// frame; otherwise each is a frame of its own, which is how a whole
// segment is laid out so damage to its tail cannot take the rest with
// it. Record, container and diff headers and block references are
// staged in the store's own buffer, which only a write holding mu uses;
// a diff's sections — region lists, bitmap, data — are written from
// where they lie, by reference, unless they are short enough to ride in
// the staging buffer (refMin).
//
//ckptlint:locked mu
func (fs *FileStore) writeRecordsLocked(w io.Writer, ds []*Diff, refs []blockstore.Ref, counts []int, end uint32, frame bool) (locs []recLoc, err error) {
	buf := fs.stage[:0]
	defer func() { fs.stage = buf[:0] }()
	var n int64 // bytes written so far
	flush := func(p []byte) error {
		m, werr := w.Write(p)
		n += int64(m)
		return werr
	}
	// put adds sec behind what buf stages: copied when short, else
	// written by reference after buf.
	put := func(sec []byte) error {
		if len(sec) < refMin {
			buf = append(buf, sec...)
			return nil
		}
		werr := flush(buf)
		if werr == nil {
			werr = flush(sec)
		}
		buf = buf[:0]
		return werr
	}
	locs = make([]recLoc, 0, len(ds))
	for i, d := range ds {
		hdrAt, at := len(buf), n+int64(len(buf))
		buf = append(buf, make([]byte, recHdrSize)...)
		secs := [...][]byte{d.FirstOcur, d.ShiftDupl, d.Bitmap, d.Data}
		var own []blockstore.Ref // stand in for the data section
		if fs.blocks != nil {
			own, refs, secs[3] = refs[:counts[i]], refs[counts[i]:], nil
			if buf, err = appendBlockHeader(buf, d, len(own)); err != nil {
				return nil, err
			}
		}
		if buf, err = d.AppendHeader(buf); err != nil {
			return nil, err
		}
		staged := buf[hdrAt+recHdrSize:]
		crc, size := crc32.Checksum(staged, castagnoli), uint64(len(staged))
		for _, sec := range secs {
			crc, size = crc32.Update(crc, castagnoli, sec), size+uint64(len(sec))
		}
		// The references follow the sections: encoded here for the
		// checksum, cut, and staged again once the sections are out.
		refsAt := len(buf)
		buf = appendRefBytes(buf, own)
		crc, size = crc32.Update(crc, castagnoli, buf[refsAt:]), size+uint64(len(buf)-refsAt)
		buf = buf[:refsAt]
		if size > math.MaxUint32 {
			return nil, fmt.Errorf("checkpoint: diff %d encodes to %d bytes, beyond the record length limit", d.CkptID, size)
		}
		segFormat.Put(buf[hdrAt:], recDiff, frame && i < len(ds)-1, d.CkptID, end, uint32(size), crc)
		locs = append(locs, recLoc{off: at, len: uint32(size), state: recLive})
		for _, sec := range secs {
			if err = put(sec); err != nil {
				return nil, fmt.Errorf("checkpoint: writing diff %d: %w", d.CkptID, err)
			}
		}
		buf = appendRefBytes(buf, own)
	}
	if err = flush(buf); err != nil {
		return nil, fmt.Errorf("checkpoint: writing records: %w", err)
	}
	return locs, nil
}

// refMin is the length from which writeRecordsLocked writes a section
// by reference instead of copying it behind the staged headers. The
// staging buffer stays with the store as long as it is open: staging
// only short sections keeps it a few KiB, and a short section is not
// worth the two writes (0.8 µs each for 64 bytes on a 2-core VM) that
// writing it by reference adds.
const refMin = 4 << 10

// appendFrameLocked is the one write path of the live segment: it adds
// one frame — a diff record per element of ds — as ONE
// recframe.Log.Append (one write, one fsync), then indexes it. An append
// that fail-stopped the log (the cut failed too, or a simulated crash,
// which must leave the debris a dying process would) stops the store
// accepting writes.
//
//ckptlint:locked mu
func (fs *FileStore) appendFrameLocked(ds []*Diff) error {
	if err := fs.prepareLocked(); err != nil {
		return err
	}
	refs, counts, err := fs.internLocked(ds)
	if err != nil {
		return err
	}
	base := int(fs.man.Base)
	end := fs.endLocked()
	for _, d := range ds {
		end = max(end, int(d.CkptID)+1)
	}
	var locs []recLoc
	err = fs.log.Append(fs.hooks, func(w io.Writer) (err error) {
		locs, err = fs.writeRecordsLocked(w, ds, refs, counts, uint32(end), true)
		return err
	})
	if err != nil {
		fs.failed = fs.log.Failed()
		return err
	}
	for len(fs.recs) < end-base {
		fs.recs = append(fs.recs, recLoc{})
	}
	for i, d := range ds {
		locs[i].off += fs.segSize
		fs.recs[int(d.CkptID)-base] = locs[i]
	}
	fs.segSize = fs.log.Size()
	return nil
}

// InstallSpan replaces the lineage's content with diffs, which carry
// the contiguous absolute ids [base, base+len(diffs)): the one rewrite
// primitive. Compaction installs the folded span it verified; a
// replica whose peer folded its lineage installs the span it pulled,
// which may start past everything the replica holds. base must not
// move backwards, and the span must reach at least as far as the store
// does — a span planned from an older Load would silently drop the
// diffs appended since, so it is refused.
//
// The span is written to a fresh segment — created durably, directory
// entry included, then written and fsynced (recframe.Create, one
// Log.Append); the manifest rename that names the new segment (baseline
// base, next generation; recframe.Commit) is the commit point; then the
// old segment is deleted. A failure before the rename leaves the old
// lineage in force and nothing of the attempt; a simulated crash, or a
// failure after the rename (the commit stands but its durability is
// unknown), stops the store until a reopen settles which manifest won.
// A crash leaves the old lineage plus an unnamed segment, or the new
// lineage plus the old segment; the next write removes either, and the
// next block-store GC reclaims what only the loser referenced.
func (fs *FileStore) InstallSpan(base int, diffs []*Diff) error {
	if len(diffs) == 0 {
		return fmt.Errorf("checkpoint: install span at %d with no diffs", base)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if base < int(fs.man.Base) {
		return fmt.Errorf("checkpoint: span baseline %d behind committed %d", base, fs.man.Base)
	}
	if end := fs.endLocked(); base+len(diffs) < end {
		return fmt.Errorf("checkpoint: span [%d,%d) stops short of the stored diffs, which reach %d",
			base, base+len(diffs), end)
	}
	if err := checkRun(diffs, base, uint32(base)); err != nil {
		return fmt.Errorf("checkpoint: span at %d: %w", base, err)
	}
	if err := fs.prepareLocked(); err != nil {
		return err
	}

	m := fs.man
	m.Base = uint32(base)
	m.Generation++
	m.segment++

	refs, counts, err := fs.internLocked(diffs)
	if err != nil {
		return err
	}
	path := filepath.Join(fs.dir, segmentName(m.segment))
	log, locs, err := fs.writeSegmentLocked(path, diffs, refs, counts)
	if err == nil {
		err = fs.commitManifestLocked(m)
	}
	if err != nil {
		if log != nil {
			log.File().Close()
		}
		if fs.failed == nil { // not committed, and not pretending to have crashed
			os.Remove(path)
		}
		return err
	}
	fs.seg.Close()
	os.Remove(fs.seg.Name())
	fs.seg, fs.log, fs.segSize, fs.recs = log.File(), log, log.Size(), locs
	return nil
}

// commitManifestLocked publishes m by recframe.Commit and adopts it. A
// failure after the rename stops the store: memory can no longer be
// known to match what a crash would leave.
//
//ckptlint:locked mu
func (fs *FileStore) commitManifestLocked(m Manifest) error {
	renamed, err := recframe.Commit(fs.hooks, filepath.Join(fs.dir, ManifestFileName), m.Encode())
	if err != nil {
		err = fmt.Errorf("checkpoint: publishing manifest: %w", err)
		if renamed {
			fs.failed = err
		}
		return fs.diedLocked(err)
	}
	fs.man = m
	return nil
}

// writeSegmentLocked is the one writer of whole segments: it creates
// path durably and writes one record per diff, each a frame of its own,
// with one write and one fsync. The log is returned also on error, for
// the caller to dispose of, together with the index of what it holds.
//
//ckptlint:locked mu
func (fs *FileStore) writeSegmentLocked(path string, diffs []*Diff, refs []blockstore.Ref, counts []int) (log *recframe.Log, locs []recLoc, err error) {
	if log, err = recframe.Create(fs.hooks, path); err != nil {
		return nil, nil, fs.diedLocked(fmt.Errorf("checkpoint: creating segment: %w", err))
	}
	first := int(diffs[0].CkptID)
	err = log.Append(fs.hooks, func(w io.Writer) (err error) {
		locs, err = fs.writeRecordsLocked(w, diffs, refs, counts, uint32(first+len(diffs)), false)
		return err
	})
	return log, locs, fs.diedLocked(err)
}

// MarkBlocks is a block-store GC's mark for this lineage: it reports to
// live every block that a diff record of the segment references, if the
// record verifies — superseded records included, since the index falls
// back to one when a later record rots. A read error fails the mark, and
// so does a stopped store: a frame past its committed length may still
// be on disk. It holds the lineage's lock, which every write holds from
// its Intern to its durable write, so a block interned before the GC
// began is in a record it reads.
func (fs *FileStore) MarkBlocks(live func(blockstore.ID)) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.failed != nil {
		return fmt.Errorf("checkpoint: marking the blocks of %s: %w", fs.dir, fs.failed)
	}
	if fs.blocks == nil || fs.seg == nil {
		return nil
	}
	recs, _, err := segFormat.Scan(fs.seg, fs.segSize, false)
	if err != nil {
		return fmt.Errorf("checkpoint: marking the blocks of %s: %w", fs.seg.Name(), err)
	}
	var payload []byte
	for _, r := range recs {
		payload = slices.Grow(payload[:0], int(r.Len))[:r.Len]
		if _, err := fs.seg.ReadAt(payload, r.Off+recHdrSize); err != nil {
			return fmt.Errorf("checkpoint: marking the blocks of %s: %w", fs.seg.Name(), err)
		}
		if _, refs, _, err := parseBlockDiff(payload); err == nil { // else self-contained
			for ; len(refs) > 0; refs = refs[blockRefSize:] {
				live(blockstore.ID(refs[:blockstore.IDSize]))
			}
		}
	}
	return nil
}

// WriteRecord persists an in-memory record into an empty store, as one
// batch.
func (fs *FileStore) WriteRecord(rec *Record) error {
	if n := fs.Len(); n != 0 {
		return fmt.Errorf("checkpoint: store %s already holds diffs up to %d", fs.dir, n)
	}
	ds := make([]*Diff, 0, rec.Len()-rec.Base())
	for k := rec.Base(); k < rec.Len(); k++ {
		ds = append(ds, rec.Diff(k))
	}
	_, err := fs.AppendBatch(ds)
	return err
}

// DamagedIDs returns, ascending, the stored ids whose record failed
// verification when the segment was opened (or that a tombstone of an
// earlier build names) and that no write has superseded since. Rot that
// sets in after the open is not listed; reads and Scrub find it.
func (fs *FileStore) DamagedIDs() []int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []int
	for i, r := range fs.recs {
		if r.state == recDamaged {
			out = append(out, int(fs.man.Base)+i)
		}
	}
	return out
}

// ReinstallDiff stores d at its absolute checkpoint id, whatever is
// there now: it supersedes a stored or damaged record, or — at the end
// of the stored ids — extends the lineage by one. The id must lie at or
// above the baseline and may not skip ahead.
func (fs *FileStore) ReinstallDiff(d *Diff) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	base, ck, end := int(fs.man.Base), int(d.CkptID), fs.endLocked()
	if ck < base || ck > end || d.CkptID == math.MaxUint32 {
		return fmt.Errorf("checkpoint: reinstall %d outside [%d,%d]", ck, base, end)
	}
	return fs.appendFrameLocked([]*Diff{d})
}
