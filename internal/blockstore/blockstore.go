// Package blockstore is a shared, content-addressed immutable block
// store with mark-and-sweep, crash-safe garbage collection — the storage
// plane that lets de-duplication cross lineage and tenant boundaries.
//
// A block is addressed by the 128-bit Murmur3 digest of its payload
// (the same hash family the paper's GPU kernels use to fingerprint
// chunks, §2.4), so identical chunks produced by ANY lineage resolve
// to the same stored record and are stored exactly once. A block is
// stored in the shortest of three layouts: its bytes; its little-endian
// uint32 words bit-packed at one width per 256 (the Bitcomp layout of
// internal/compress: small counters); or the zigzag deltas of
// consecutive words bit-packed at one width per 4 (slowly changing or
// sparse counters, such as a GDV's). Random blocks stay as they are.
// Every read re-verifies two CRC32Cs and re-derives the digest from the
// block's bytes, unpacked if need be, so bit rot surfaces as a typed
// ErrCorrupt, never as silently wrong restore bytes.
//
// # Planes
//
// Following the split index/data streams of klauspost/dedup, the store
// keeps two planes under one directory (formats in format.go):
//
//   - the pack log, pack-NNNNNN.log: append-only files of CRC-framed
//     block records. The log is the store; the highest-numbered pack
//     takes appends, the others are sealed.
//   - the index snapshot, blockstore.index: every live block's
//     {pack, offset, length, CRC} as of one log position — the commit
//     record of GC and a cache of the log up to that position. An open
//     loads it and replays only the log past it.
//
// The store counts no references: GC marks from the records that hold
// them (see GC), so a dedup hit writes nothing and a record that leaves
// a lineage owes the store no call.
//
// # Crash safety
//
// The store writes by the protocol of internal/recframe: an Intern that
// adds blocks appends ONE frame — a block record per new block, all but
// the last flagged more — with one recframe.Log.Append (one write, one
// fsync, whatever the block count) and touches the in-memory index only
// after it; GC's snapshot is published by recframe.Commit; tests reach
// every failure point through one recframe.Hooks (SetHooks).
//
// B1. A crash, failed write or failed fsync loses exactly the un-acked
// frame: the next open cuts a frame without its committing record off
// before anything is appended after it (recframe.Resume), so a reopen
// yields the state before the call. A failure that is not a crash cuts
// the pack back itself; if the log fail-stops instead, the store drops
// its handles and its lock and refuses everything until it is reopened.
//
// B2. Rot in a committed record is never mistaken for a torn tail. A
// bad region followed by any record that verifies is rot: nothing after
// it is dropped, every other block keeps its location, and Get of the
// rotten block fails typed (ErrNotFound) until it is interned again.
// Only a bad region that reaches the end of the last pack is a torn
// commit — the one ambiguity: rot inside the very last frame reads as a
// torn append and is cut off with it.
package blockstore

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gpuckpt/gpuckpt/internal/compress"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

const (
	// idSize is the byte length of a block ID: a full Murmur3 x64
	// 128-bit digest.
	idSize = 16

	// idSeed is the fixed Murmur3 seed of block addressing. Content
	// addressing only de-duplicates across independent producers if
	// every producer derives the same ID from the same bytes, so this
	// seed is a format constant, never a configuration knob.
	idSeed uint32 = 0x9747b28c

	// chunkSize is the granularity Split cuts payloads at before
	// interning. It is a property of the store, not of each producer:
	// cross-lineage de-duplication requires every producer to chunk
	// identically.
	chunkSize = 4096

	// DirName is the conventional name of a shared block store
	// directory placed next to the lineage directories it serves
	// (e.g. a ckptd root holds <root>/_blocks beside <root>/<lineage>).
	// The leading underscore keeps it out of the server's lineage
	// namespace.
	DirName = "_blocks"

	indexFileName = "blockstore.index"
	lockFileName  = "blockstore.lock"

	// packRollSize seals the active pack: the first frame that finds it
	// at least this long goes to a new one. A frame never spans packs.
	// GC empties a sealed pack once under 1/gcSparseDiv of it is live.
	packRollSize = 64 << 20
	gcSparseDiv  = 2
	// writeBufSize is the store's fixed staging buffer: headers, IDs
	// and small payloads coalesce in it, larger payloads bypass it.
	writeBufSize = 64 << 10
)

// oldLayoutNames are what the replaced file-per-block layout kept in
// the store directory; a directory holding either is refused.
var oldLayoutNames = []string{"data", "blockstore.journal"}

// IDSize is the byte length of an ID, for formats that embed block
// references.
const IDSize = idSize

// ID is the content address of a block: the canonical serialization of
// the Murmur3 128-bit digest of its payload.
type ID [idSize]byte

// IDOf derives the content address of a payload.
func IDOf(p []byte) ID {
	return ID(murmur3.Sum128(p, idSeed).Bytes())
}

// String renders the ID as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Ref is a durable reference to one stored block: the address plus the
// payload length, which lets a reader pre-validate reassembly sizes
// without touching the data plane.
type Ref struct {
	ID  ID
	Len uint32
}

// Errors.
var (
	// ErrCorrupt matches every integrity failure surfaced by the
	// store: record checksum or digest mismatches, a rotten index.
	// Callers branch on it with errors.Is.
	ErrCorrupt = errors.New("blockstore: corrupt")
	// ErrNotFound reports a Get of a block the store does not hold.
	ErrNotFound = errors.New("blockstore: block not found")
	// ErrCollision reports an intern whose payload hashes to an
	// existing ID but disagrees with the block's length or CRC — the
	// astronomically unlikely 128-bit collision, refused rather than
	// silently aliased. Both are the block's, however it is stored.
	ErrCollision = errors.New("blockstore: block ID collision")
	// ErrClosed reports use after Close, or after a failure stopped the
	// store (a failed fsync, a failed rollback, a simulated crash): the
	// error then wraps that failure too, call after call, until a
	// reopen recovers the directory.
	ErrClosed = errors.New("blockstore: store is closed")
	// ErrReadOnly reports a mutating operation on a store opened with
	// Options.ReadOnly.
	ErrReadOnly = errors.New("blockstore: store is read-only")
	// ErrBusy reports a writable Open of a directory whose lock another
	// live Store holds (typically a running ckptd server). Retry later,
	// or open with Options.ReadOnly to inspect alongside the owner.
	ErrBusy = errors.New("blockstore: store directory is locked by another owner")
	// ErrOldLayout reports a directory in a layout this build does not
	// read: the file-per-block layout (a data/ fan-out plus
	// blockstore.journal), the builds that counted references (ref and
	// release records in a pack, a version 2 index snapshot), or an index
	// snapshot of an unknown version. Nothing in it is touched.
	ErrOldLayout = errors.New("blockstore: directory holds a layout this build does not read")
	// ErrSimulatedCrash is recframe.ErrSimulatedCrash: what a hook seam
	// returns (wrapped) to kill the process there. The store leaves the
	// debris a dying process would and refuses everything until it is
	// reopened; any other error from a seam is an I/O failure the store
	// rolls back from.
	ErrSimulatedCrash = recframe.ErrSimulatedCrash
)

// Options parameterizes Open.
type Options struct {
	// ReadOnly opens the store without mutating anything (no temp
	// sweep, no cut of a torn tail) and without taking the directory
	// lock: Intern and GC return ErrReadOnly. This is the safe
	// way for tooling to inspect a store whose writable lock a live
	// ckptd server holds — the reader sees the log as of its open (the
	// owner's later interns are invisible).
	ReadOnly bool
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// Blocks counts the indexed blocks and StoredBytes what their
	// records store: a packed or delta-packed block's layout, any other
	// block's bytes. Neither counts record headers and IDs.
	Blocks      int
	StoredBytes int64
	// Interned counts unique blocks written since open; DedupHits
	// counts interns resolved to an already-present block; SavedBytes
	// sums the bytes of the blocks those hits avoided writing — the
	// cross-producer de-duplication win, before packing.
	Interned, DedupHits, SavedBytes uint64
	// GCBlocks / GCBytes count the blocks reclaimed by committed GC
	// transactions since open, and what their records stored.
	GCBlocks, GCBytes uint64
}

// Store is a content-addressed block store rooted at one directory.
// It is safe for concurrent use by multiple goroutines (and is
// typically shared by every FileStore of a server). Writable opens are
// serialized by an advisory directory lock — a second writable Open
// while an owner lives fails with ErrBusy instead of cutting the tail
// off a log the owner is appending to. Read-only opens coexist with a
// live owner; see Options.ReadOnly.
type Store struct {
	dir string
	// ro marks a store opened with Options.ReadOnly; rollSize is
	// packRollSize (tests shrink it). Both are set once in Open.
	ro       bool
	rollSize int64

	gcMu sync.Mutex // serializes GCs; taken before mu

	// mu protects everything below. Helpers that run with it held carry
	// a //ckptlint:locked mu precondition, which the guardedby analyzer
	// verifies at every call site.
	mu      sync.Mutex
	entries map[ID]entry //ckptlint:guardedby mu
	// blocks and bytes are len(entries) and the sum of their stored
	// lengths, kept as running totals so Stats is O(1).
	blocks int    //ckptlint:guardedby mu
	bytes  int64  //ckptlint:guardedby mu
	gen    uint64 //ckptlint:guardedby mu
	// touched holds every ID Intern or Write returned since a running GC
	// began, and every ID pinned when it began (nil when none runs):
	// live, whatever the GC's mark reports.
	touched map[ID]struct{} //ckptlint:guardedby mu
	// failed is the error a failure stopped the store with (failLocked),
	// nil while it runs.
	failed error //ckptlint:guardedby mu
	// pins holds every Pin that Write has appended to and Unpin has
	// not emptied yet: blocks a record will name once their caller
	// settles, which a GC must not take meanwhile.
	pins map[*Pin]struct{} //ckptlint:guardedby mu
	// packs holds one handle per pack file, by number: what Get reads
	// through. active is the number of the pack appends go to (0: none
	// yet) and log its write handle — the same file and its committed
	// length (nil while there is no pack, and in a read-only store). at is
	// the offset the next record of the frame being staged will sit at.
	// version is the highest version record the active pack holds, which
	// a packed or delta record written to it needs before it. An open
	// that finds one only in the part of the pack a snapshot folds does
	// not count it, and the next such frame writes a second one:
	// harmless. deltas says the store holds or held delta records — its
	// snapshot is version 5, or it replayed or wrote one — so that its
	// snapshots are version 5 and GC's moved records get a version 3
	// record.
	packs   map[uint32]*os.File //ckptlint:guardedby mu
	active  uint32              //ckptlint:guardedby mu
	log     *recframe.Log       //ckptlint:guardedby mu
	at      int64               //ckptlint:guardedby mu
	version byte                //ckptlint:guardedby mu
	deltas  bool                //ckptlint:guardedby mu
	// The write path's fixed scratch: the staging buffer, a record
	// header, the entry Intern plans for each new block, and the packed
	// or delta layout of the block being staged.
	w      *bufio.Writer          //ckptlint:guardedby mu
	hdr    [recframe.HdrSize]byte //ckptlint:guardedby mu
	plan   map[ID]entry           //ckptlint:guardedby mu
	packed []byte                 //ckptlint:guardedby mu
	closed bool                   //ckptlint:guardedby mu
	hooks  *recframe.Hooks        //ckptlint:guardedby mu
	// lock is the held writable-owner lock file handle (nil in
	// read-only mode or where the platform offers no flock).
	lock *os.File //ckptlint:guardedby mu

	interned  atomic.Uint64 //ckptlint:atomic
	dedupHits atomic.Uint64 //ckptlint:atomic
	savedB    atomic.Uint64 //ckptlint:atomic
	gcBlocks  atomic.Uint64 //ckptlint:atomic
	gcBytes   atomic.Uint64 //ckptlint:atomic
}

// New creates (or reopens) a block store directory. It is Open with
// default options; both spellings carry the same Close contract.
func New(dir string) (*Store, error) { return Open(dir, Options{}) }

// Open creates or reopens a block store. A writable open takes the
// directory's advisory owner lock (ErrBusy if another live Store holds
// it) and recovers: see recoverLocked. Opening a new or empty store
// syncs nothing and creates no pack; the first Intern does. With
// Options.ReadOnly the directory must already exist, no lock is taken,
// and nothing on disk is touched.
//
// The returned Store must be Closed when no longer needed.
func Open(dir string, opts Options) (*Store, error) {
	for _, name := range oldLayoutNames {
		if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("%w: %s", ErrOldLayout, filepath.Join(dir, name))
		}
	}
	s := &Store{dir: dir, ro: opts.ReadOnly, rollSize: packRollSize}
	// Nothing shares the store yet; holding mu keeps the precondition
	// of the locked helpers recovery runs through true.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ro {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("blockstore: creating %s: %w", dir, err)
		}
		lock, err := acquireDirLock(filepath.Join(dir, lockFileName))
		if err != nil {
			return nil, err
		}
		s.lock = lock
		s.plan, s.pins, s.w = make(map[ID]entry), make(map[*Pin]struct{}), bufio.NewWriterSize(nil, writeBufSize)
	}
	if err := s.recoverLocked(); err != nil {
		s.releaseLocked()
		return nil, err
	}
	return s, nil
}

// ReadOnly reports whether Intern and GC fail with ErrReadOnly.
func (s *Store) ReadOnly() bool { return s.ro }

// Close releases the pack handles and the owner lock. Idempotent; a
// closed store rejects every other operation.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.releaseLocked()
}

// releaseLocked closes the store: every pack handle and the owner lock.
//
//ckptlint:locked mu
func (s *Store) releaseLocked() (err error) {
	s.closed = true
	for num, f := range s.packs {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("blockstore: closing pack %d: %w", num, cerr)
		}
	}
	s.packs = nil
	if s.lock != nil { // dropping the flock is closing the handle
		s.lock.Close()
		s.lock = nil
	}
	return err
}

// failLocked disables the store after a failure it cannot roll back
// from: whatever is on disk stays exactly as it is, and only a reopen
// (which recovers from it) makes the directory usable again.
//
//ckptlint:locked mu
func (s *Store) failLocked(err error) error {
	s.releaseLocked()
	s.failed = fmt.Errorf("%w (%w; reopen to recover)", err, ErrClosed)
	return s.failed
}

// diedLocked passes err through; a simulated crash — at any seam, or
// inside the log — disables the store, debris and all.
//
//ckptlint:locked mu
func (s *Store) diedLocked(err error) error {
	if errors.Is(err, ErrSimulatedCrash) && !s.closed {
		return s.failLocked(err)
	}
	return err
}

// seamLocked runs the hooks' seam at point: the store's own points
// "gc-before" (GC has relocated what it will, the new snapshot is not
// staged yet), "gc-after" (the snapshot is durable, emptied packs are
// not unlinked yet) and "unlink" (before GC unlinks the named pack).
//
//ckptlint:locked mu
func (s *Store) seamLocked(point, path string) error {
	return s.diedLocked(s.hooks.At(point, path))
}

// SetHooks installs the fault seam the store's I/O runs through (see
// recframe.Hooks); nil removes it. Test-only.
func (s *Store) SetHooks(h *recframe.Hooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = h
}

// LockingSupported reports whether this platform enforces the writable
// owner lock (flock). Where false, writable opens never return ErrBusy
// and single-owner discipline falls to the operator.
func LockingSupported() bool { return lockingSupported }

func (s *Store) indexPath() string { return filepath.Join(s.dir, indexFileName) }

func (s *Store) packPath(num uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("pack-%06d.log", num))
}

// recoverLocked builds the in-memory state from the directory: the
// snapshot, then every verified record of the log past the position it
// folds up to. Sealed packs lose nothing to damage; a torn frame at
// the end of the last pack is dropped. A writable open also cuts that
// frame off — never append after garbage — and removes a snapshot an
// interrupted GC staged.
//
//ckptlint:locked mu
func (s *Store) recoverLocked() error {
	s.entries, s.packs = make(map[ID]entry), make(map[uint32]*os.File)
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("blockstore: opening %s: %w", s.dir, err)
	}
	var mark logPos
	var nums []uint32
	var tmps []string
	for _, e := range names {
		var num uint32
		switch name := e.Name(); {
		case strings.HasSuffix(name, recframe.TmpSuffix) && !s.ro:
			tmps = append(tmps, name)
		case name == indexFileName:
			b, err := os.ReadFile(s.indexPath())
			if err == nil {
				s.gen, mark, s.entries, err = DecodeIndex(b)
				s.deltas = err == nil && b[4] == formatVersion
			}
			if err != nil {
				return fmt.Errorf("blockstore: index %s: %w", s.indexPath(), err)
			}
		default:
			if n, _ := fmt.Sscanf(name, "pack-%d.log", &num); n == 1 && num > 0 && name == filepath.Base(s.packPath(num)) {
				nums = append(nums, num)
			}
		}
	}
	for _, e := range s.entries {
		s.blocks++
		s.bytes += int64(e.stored)
	}
	slices.Sort(nums)
	for i, num := range nums {
		last, flag := i == len(nums)-1, os.O_RDONLY
		if last && !s.ro {
			flag = os.O_RDWR
		}
		f, err := os.OpenFile(s.packPath(num), flag, 0)
		if err != nil {
			return fmt.Errorf("blockstore: opening pack: %w", err)
		}
		s.packs[num] = f
		size, err := f.Seek(0, io.SeekEnd)
		from := int64(0)
		switch {
		case err != nil:
		case num < mark.pack:
			from = size // folded into the snapshot
		case num == mark.pack && mark.off > size:
			err = fmt.Errorf("%w: the index folds it up to offset %d, it holds %d bytes", ErrCorrupt, mark.off, size)
		case num == mark.pack:
			from = mark.off
		}
		var recs []recframe.Header
		var committed int64
		if err == nil {
			recs, committed, err = packFormat.Scan(io.NewSectionReader(f, from, size-from), size-from, !last)
		}
		s.version = 0
		for _, r := range recs {
			r.Off += from
			if err == nil {
				err = s.replayLocked(f, num, r)
			}
		}
		if last && err == nil {
			s.active = num
			if !s.ro {
				s.log, err = recframe.Resume(f, from+committed)
			}
		}
		if err != nil {
			return fmt.Errorf("blockstore: recovering %s: %w", f.Name(), err)
		}
	}
	if mark.pack != 0 && s.packs[mark.pack] == nil {
		return fmt.Errorf("%w: the index folds the log up to pack %d, which the directory does not hold", ErrCorrupt, mark.pack)
	}
	// Only a directory this store reads loses its stale temps.
	for _, name := range tmps {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("blockstore: removing stale temp %s: %w", name, err)
		}
	}
	return nil
}

// replayLocked folds one verified record of pack num (handle f) into
// the in-memory state: a block record places its block, a moved record
// moves one the index holds, and a version record says which layouts
// the pack may hold. An earlier build's ref or release record, or the
// version record of a later build, is ErrOldLayout.
//
//ckptlint:locked mu
func (s *Store) replayLocked(f *os.File, num uint32, r recframe.Header) error {
	var id ID // the block's bytes stay on disk
	if _, err := f.ReadAt(id[:], r.Off+recframe.HdrSize); err != nil {
		return err
	}
	kind, v := r.Kind&^recDelta, id[4]
	switch isVersion := r.Kind == recRef && r.Len == idSize && id == versionRecord(v); {
	case isVersion && (v == packedPackVersion || v == deltaPackVersion):
		s.version = max(s.version, v)
		return nil
	case isVersion:
		return fmt.Errorf("%w: pack format version %d at offset %d", ErrOldLayout, v, r.Off)
	case kind != recBlock && kind != recMoved:
		return fmt.Errorf("%w: a reference-count record (kind %d) at offset %d", ErrOldLayout, r.Kind, r.Off)
	}
	s.deltas = s.deltas || r.Kind&recDelta != 0
	at := recordEntry(r, num)
	if e, ok := s.entries[id]; kind == recBlock || ok && e.len == at.len && e.crc == at.crc {
		s.placeLocked(id, at)
	}
	return nil
}

// placeLocked records that block id sits at at.
//
//ckptlint:locked mu
func (s *Store) placeLocked(id ID, at entry) {
	e, ok := s.entries[id]
	if !ok {
		s.blocks++
	}
	s.bytes += int64(at.stored) - int64(e.stored)
	s.entries[id] = at
}

// Split cuts a payload into the store's chunk-sized slices (the last
// one short). The slices alias p; Intern copies what it stores.
func (s *Store) Split(p []byte) [][]byte {
	if len(p) == 0 {
		return nil
	}
	return AppendSplit(make([][]byte, 0, (len(p)+chunkSize-1)/chunkSize), p)
}

// BlockSize is the length Split cuts at: a payload handed over in
// pieces that are whole multiples of it, all but the last, is cut
// where Split cuts it whole.
const BlockSize = chunkSize

// AppendSplit appends the slices Split cuts p into to dst.
func AppendSplit(dst [][]byte, p []byte) [][]byte {
	for len(p) > chunkSize {
		dst = append(dst, p[:chunkSize])
		p = p[chunkSize:]
	}
	if len(p) > 0 {
		dst = append(dst, p)
	}
	return dst
}

// beginLocked reports why the store cannot be mutated, if it cannot,
// and otherwise clears the write path's per-call scratch.
//
//ckptlint:locked mu
func (s *Store) beginLocked() error {
	switch {
	case s.failed != nil:
		return s.failed
	case s.closed:
		return ErrClosed
	case s.ro:
		return ErrReadOnly
	}
	clear(s.plan)
	return nil
}

// appendFrameLocked is the one write path of the pack log. The frame
// is what emit stages with recLocked; version is the pack format
// version its records need (0 for raw ones only), which a pack without
// a version record that high gets one of first, in a frame of its own: a tear after it
// leaves a version record and no block. It goes to the active pack (a
// new one if that is full or there is none yet) through the store's
// fixed buffer as ONE recframe.Log.Write: one write, no fsync — that is
// syncLocked's — and on failure nothing of the frame stays, or the log
// has fail-stopped (the cut failed, or a simulated crash) and the store
// is disabled. Callers apply the frame to the in-memory state only once
// this returns nil.
//
//ckptlint:locked mu
func (s *Store) appendFrameLocked(version byte, emit func() error) error {
	if s.log == nil || s.log.End() >= s.rollSize {
		if err := s.rollLocked(); err != nil {
			return s.diedLocked(fmt.Errorf("blockstore: rolling the pack log: %w", err))
		}
	}
	s.at = s.log.End()
	if version <= s.version {
		version = 0
	}
	err := s.log.Write(s.hooks, func(w io.Writer) error {
		s.w.Reset(w)
		defer s.w.Reset(nil) // let go of the caller's last payload
		if version != 0 {
			v := versionRecord(version)
			s.recLocked(recRef, false, v[:], nil, entry{}, blockCRC(v[:], nil))
		}
		if err := emit(); err != nil {
			return err
		}
		return s.w.Flush()
	})
	if err == nil {
		s.version = max(s.version, version)
	} else {
		err = fmt.Errorf("blockstore: %w", err)
		if s.log.Failed() != nil {
			err = s.failLocked(err)
		}
	}
	return err
}

// rollLocked seals the active pack, if there is one, and starts the
// next. A sealed pack is scanned to its end, so a cut of this one (a
// torn tail on open, a rolled-back frame) must be durable before it is
// left, and so must the frames written to it since the last sync; the
// new file must survive power loss before a snapshot may point into it
// (recframe.Create). A failed fsync of the pack it leaves stops the
// store, as syncLocked's does.
//
//ckptlint:locked mu
func (s *Store) rollLocked() error {
	if s.log != nil {
		if err := s.log.Sync(s.hooks); err != nil {
			return s.failLocked(err)
		}
	}
	log, err := recframe.Create(s.hooks, s.packPath(s.active+1))
	if err != nil {
		return err
	}
	s.active++
	s.packs[s.active], s.log, s.version = log.File(), log, 0
	return nil
}

// recLocked stages one record of the frame being built — the ID, then
// what it stores, p, by reference, with payload checksum crc; when e is
// packed its header carries e's length and CRC — and returns the offset
// it will sit at. A write error sticks to the buffer and surfaces when
// the frame is flushed.
//
//ckptlint:locked mu
func (s *Store) recLocked(kind byte, more bool, id, p []byte, e entry, crc uint32) (off int64) {
	var a, b uint32
	if e.packed() {
		a, b = e.len, e.crc
	}
	packFormat.Put(s.hdr[:], kind, more, a, b, uint32(idSize+len(p)), crc)
	s.w.Write(s.hdr[:])
	s.w.Write(id)
	s.w.Write(p)
	off = s.at
	s.at += blockRecOverhead + int64(len(p))
	return off
}

// blockLocked stages the record of block p, planned as e: its bytes, or
// the shorter of their packed and delta-packed layouts, whose length
// Intern planned — the packed one if PackedLen measures it, since a
// delta layout is kept only when it is strictly shorter.
//
//ckptlint:locked mu
func (s *Store) blockLocked(more bool, id, p []byte, e entry) (off int64) {
	switch {
	case !e.packed():
		return s.recLocked(recBlock, more, id, p, e, e.crc)
	case compress.PackedLen(p) == int(e.stored):
		s.packed = compress.AppendPacked(s.packed[:0], p)
		return s.recLocked(recBlock, more, id, s.packed, e, blockCRC(id, s.packed))
	}
	s.packed = compress.AppendDeltaPacked(s.packed[:0], p)
	return s.recLocked(recBlock|recDelta, more, id, s.packed, e, blockCRC(id, s.packed))
}

// Intern stores every chunk that is not already present and returns
// the reference of each, in order. The new chunks are ONE frame — a
// block record each, where the chunk first occurs in the batch, in its
// shortest layout — made durable by one fsync whatever the block
// count; a dedup hit writes nothing. It is Write with no Pin, then Sync:
// it commits entirely or not at all — on a collision or a failed write
// the store, in memory and on disk, is as it was before the call, and a
// failed fsync stops the store (see Sync).
func (s *Store) Intern(chunks [][]byte) ([]Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs, err := s.writeLocked(make([]Ref, 0, len(chunks)), chunks)
	if err == nil {
		err = s.syncLocked()
	}
	if err != nil {
		return nil, err
	}
	return refs, nil
}

// A Pin is a caller's list of references that Write appended to it:
// every block it names is live across any GC until Unpin releases it.
// Only Write and Unpin change Refs; its owner reads it freely.
type Pin struct {
	Refs []Ref
}

// Write stores every chunk that is not already present, as Intern does,
// and appends the reference of each to p.Refs — but fsyncs nothing: its
// new blocks are placed at once, so that any later call dedups against
// them, and become durable at the next Sync, whoever calls it. A caller
// makes no record that names one of them durable before a Sync that
// began after this Write returned. It fails as Intern does, with p as
// it was.
func (s *Store) Write(p *Pin, chunks [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs, err := s.writeLocked(p.Refs, chunks)
	if err != nil {
		return err
	}
	p.Refs = refs
	if len(refs) > 0 {
		s.pins[p] = struct{}{}
	}
	return nil
}

// Unpin releases the references of p past its first keep, which it
// drops from p.Refs.
func (s *Store) Unpin(p *Pin, keep int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.Refs = p.Refs[:keep]
	if keep == 0 {
		delete(s.pins, p)
	}
}

// Sync makes every block written so far durable: one fsync of the
// active pack, if a block was written to it since the last; none
// otherwise. A failed fsync stops the store — which of the pending
// bytes reached the disk is unknown, so nothing may be placed behind
// them or named by a record — until a reopen recovers it: the error is
// returned, and every later call fails with ErrClosed.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.failed != nil:
		return s.failed
	case s.closed:
		return ErrClosed
	case s.ro:
		return ErrReadOnly
	}
	return s.syncLocked()
}

// syncLocked is Sync.
//
//ckptlint:locked mu
func (s *Store) syncLocked() error {
	if s.log == nil || s.log.End() == s.log.Size() {
		return nil
	}
	if err := s.log.Sync(s.hooks); err != nil {
		return s.failLocked(fmt.Errorf("blockstore: %w", err))
	}
	return nil
}

// writeLocked stores chunks as Write does and appends their references
// to refs.
//
//ckptlint:locked mu
func (s *Store) writeLocked(refs []Ref, chunks [][]byte) ([]Ref, error) {
	if err := s.beginLocked(); err != nil {
		return refs, err
	}
	had := len(refs)
	refs = slices.Grow(refs, len(chunks))
	// Plan first, apply after the write: s.plan holds the entry of every
	// block the frame adds.
	var hits, saved uint64
	var version byte
	for i, p := range chunks {
		if len(p) > math.MaxUint32-idSize {
			return refs[:had], fmt.Errorf("blockstore: chunk %d of %d bytes is beyond the record length limit", i, len(p))
		}
		id := IDOf(p)
		refs = append(refs, Ref{ID: id, Len: uint32(len(p))})
		r := &refs[len(refs)-1]
		want := entry{len: r.Len, crc: blockCRC(r.ID[:], p)}
		have, ok := s.entries[id]
		if !ok {
			have, ok = s.plan[id]
		}
		switch {
		case !ok:
			want.stored = want.len
			if n := compress.PackedLen(p); n < len(p) {
				want.stored = uint32(n)
				version = max(version, packedPackVersion)
			}
			if n := compress.DeltaPackedLen(p); n >= 0 && n < int(want.stored) {
				want.stored = uint32(n)
				version = deltaPackVersion
			}
			s.plan[id] = want
		case have.len != want.len || have.crc != want.crc:
			return refs[:had], fmt.Errorf("%w: id %s holds %d bytes crc %08x, interning %d bytes crc %08x",
				ErrCollision, id, have.len, have.crc, want.len, want.crc)
		default:
			hits++
			saved += uint64(len(p))
		}
	}
	added := refs[had:]
	if len(s.plan) > 0 {
		err := s.appendFrameLocked(version, func() error {
			for i, left := 0, len(s.plan); left > 0; i++ {
				if at, ok := s.plan[added[i].ID]; ok && at.pack == 0 {
					left--
					at.pack = s.active
					at.off = s.blockLocked(left > 0, added[i].ID[:], chunks[i], at)
					s.plan[added[i].ID] = at
				}
			}
			return nil
		})
		if err != nil {
			return refs[:had], err
		}
		for id, at := range s.plan {
			s.placeLocked(id, at)
		}
		s.deltas = s.deltas || version == deltaPackVersion
	}
	for _, r := range added {
		if s.touched != nil {
			s.touched[r.ID] = struct{}{}
		}
	}
	s.interned.Add(uint64(len(s.plan)))
	s.dedupHits.Add(hits)
	s.savedB.Add(saved)
	return refs, nil
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	blocks, bytes := s.blocks, s.bytes
	s.mu.Unlock()
	return Stats{
		Blocks:      blocks,
		StoredBytes: bytes,
		Interned:    s.interned.Load(),
		DedupHits:   s.dedupHits.Load(),
		SavedBytes:  s.savedB.Load(),
		GCBlocks:    s.gcBlocks.Load(),
		GCBytes:     s.gcBytes.Load(),
	}
}
