package blockstore

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// GCStats reports one committed GC transaction.
type GCStats struct {
	// Live is how many live blocks the new snapshot retains.
	Live int
	// Reclaimed counts the blocks dropped from the index; ReclaimedBytes
	// what their records stored (Stats.StoredBytes). The pack space they
	// occupy is returned when their pack, once sealed, is mostly dead.
	Reclaimed      int
	ReclaimedBytes int64
}

// GC reclaims every block that is not live and folds the log into a
// fresh index snapshot of the rest. mark must report through live, from
// one goroutine, every block named by a record that existed when GC was
// called, and must not call GC. It runs without the store's lock, so a
// push may reference a block it has gone past: every ID Intern returns
// while GC runs is live too. A mark error fails the GC with nothing
// reclaimed. GCs serialize.
//
// GC then empties every sealed pack that is mostly dead, copying the
// live blocks to the end of the log as moved records (one frame, one
// fsync per pack); the snapshot rename is the one commit point; after
// it the dead blocks are forgotten and the emptied packs unlinked.
// Crash-safe at every point: before the rename the old snapshot plus
// the log still hold the full state — a moved record only changes
// where a block is read from; after it, all that can remain is a pack
// nothing points into, which the next GC unlinks.
func (s *Store) GC(mark func(live func(ID)) error) (GCStats, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	s.mu.Lock()
	err := s.beginLocked()
	if err == nil {
		s.touched = make(map[ID]struct{})
		for p := range s.pins {
			for _, r := range p.Refs {
				s.touched[r.ID] = struct{}{}
			}
		}
	}
	s.mu.Unlock()
	if err != nil {
		return GCStats{}, err
	}
	marked := make(map[ID]struct{})
	err = mark(func(id ID) { marked[id] = struct{}{} })

	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats
	for id := range s.touched {
		marked[id] = struct{}{}
	}
	s.touched = nil
	if err != nil {
		return st, fmt.Errorf("blockstore: GC mark: %w", err)
	}
	if err := s.beginLocked(); err != nil {
		return st, err
	}
	live := make([]ID, 0, len(marked))
	liveBytes := make(map[uint32]int64)
	for id, e := range s.entries {
		if _, ok := marked[id]; ok {
			live = append(live, id)
			liveBytes[e.pack] += blockRecOverhead + int64(e.stored)
		}
	}
	sortIDs(live)
	st.Live = len(live)

	var sparse, emptied []uint32
	for num, f := range s.packs {
		if size, err := f.Seek(0, io.SeekEnd); err != nil {
			return st, fmt.Errorf("blockstore: sizing pack %d: %w", num, err)
		} else if num < s.active && liveBytes[num]*gcSparseDiv < size {
			sparse = append(sparse, num)
		}
	}
	slices.Sort(sparse)
	for _, num := range sparse {
		// A pack with a live block that no longer verifies is left
		// alone, as evidence: copying the block would launder the rot.
		if err := s.relocateLocked(num, live); err == nil {
			emptied = append(emptied, num)
		} else if !errors.Is(err, ErrCorrupt) || s.closed {
			return st, err
		}
	}

	// The snapshot must name no block whose bytes are not durable: a
	// Write's frames pending a Sync are synced first.
	err = s.syncLocked()
	if err == nil {
		err = s.seamLocked("gc-before", s.indexPath())
	}
	if err == nil {
		err = s.commitIndexLocked(live)
	}
	if err != nil {
		return st, err
	}
	for id, e := range s.entries {
		if _, ok := marked[id]; !ok {
			delete(s.entries, id)
			s.blocks--
			s.bytes -= int64(e.stored)
			st.Reclaimed++
			st.ReclaimedBytes += int64(e.stored)
		}
	}
	s.gcBlocks.Add(uint64(st.Reclaimed))
	s.gcBytes.Add(uint64(st.ReclaimedBytes))
	err = s.seamLocked("gc-after", s.indexPath())
	for _, num := range emptied {
		if err == nil {
			err = s.seamLocked("unlink", s.packPath(num))
		}
		if err != nil {
			return st, err
		}
		s.packs[num].Close()
		delete(s.packs, num)
		if err = os.Remove(s.packPath(num)); err != nil {
			return st, fmt.Errorf("blockstore: unlinking emptied pack: %w", err)
		}
	}
	return st, err
}

// relocateLocked copies the live blocks of sealed pack num to the end
// of the log as one frame of moved records and, once that is durable,
// points their entries at the copies. A moved record stores what the
// record it copies stores, in its layout. Each block is verified
// against the index on the way, so one that rotted fails the relocation
// (ErrCorrupt) instead of gaining a fresh checksum.
//
//ckptlint:locked mu
func (s *Store) relocateLocked(num uint32, live []ID) error {
	// A moved record needs the version its record needed: packed or
	// delta, which only the record says, so a store that holds delta
	// records gives any frame that moves a short one a version 3 record.
	var refs []Ref
	var version byte
	for _, id := range live {
		if e := s.entries[id]; e.pack == num {
			refs = append(refs, Ref{ID: id})
			if e.packed() {
				version = packedPackVersion
			}
		}
	}
	if version != 0 && s.deltas {
		version = deltaPackVersion
	}
	if len(refs) == 0 {
		return nil
	}
	slices.SortFunc(refs, func(a, b Ref) int { return cmp.Compare(s.entries[a.ID].off, s.entries[b.ID].off) })
	var sc ReadScratch // recLocked is done with a payload when it returns
	r := sc.reader(refs)
	r.hooks = s.hooks
	s.resolveLocked(refs, r.locs)
	offs := make([]int64, len(refs))
	err := s.appendFrameLocked(version, func() error {
		for i := range refs {
			if _, err := r.next(); err != nil {
				return err
			}
			kind := recMoved | r.rec[4]&recDelta // the record's kind byte
			rec := r.rec[blockRecOverhead:]
			offs[i] = s.recLocked(kind, i < len(refs)-1, refs[i].ID[:], rec, r.locs[i].e, blockCRC(refs[i].ID[:], rec))
		}
		return nil
	})
	if err == nil {
		err = s.syncLocked()
	}
	if err != nil {
		return err
	}
	for i, at := range r.locs {
		at.e.pack, at.e.off = s.active, offs[i]
		s.entries[refs[i].ID] = at.e
	}
	return nil
}

// commitIndexLocked publishes the next generation's index snapshot —
// the live blocks as of the log's current end — by recframe.Commit. A
// failure before the rename leaves the old snapshot in force and is
// reported as is; a simulated crash, or a failure after the rename (the
// commit stands but its durability is unknown), disables the store
// until a reopen settles which snapshot won.
//
//ckptlint:locked mu
func (s *Store) commitIndexLocked(live []ID) error {
	end := logPos{pack: s.active}
	if s.log != nil {
		end.off = s.log.Size()
	}
	version := byte(packedVersion)
	if s.deltas {
		version = formatVersion
	}
	snap, err := encodeIndex(version, s.gen+1, end, live, s.entries)
	if err != nil {
		return err
	}
	renamed, err := recframe.Commit(s.hooks, s.indexPath(), snap)
	if renamed {
		s.gen++
	}
	if err != nil {
		err = fmt.Errorf("blockstore: index: %w", err)
		if renamed {
			return s.failLocked(err)
		}
	}
	return s.diedLocked(err)
}

// sortIDs orders ids ascending by their byte serialization, the
// canonical order of index snapshots.
func sortIDs(ids []ID) {
	slices.SortFunc(ids, func(a, b ID) int { return bytes.Compare(a[:], b[:]) })
}
