// Package hashmap provides a lock-free, fixed-capacity, open-addressing
// concurrent hash table from 128-bit chunk digests to first-occurrence
// entries.
//
// It is the stand-in for Kokkos::UnorderedMap, which the paper uses as
// the "historical record of unique hashes" (Tan et al., ICPP 2023,
// §2.1, §2.4): thousands of GPU threads insert concurrently, the first
// inserter of a digest wins, and later inserters observe the winning
// entry. That first-inserter-wins semantics is load-bearing for
// Algorithm 1, which classifies a chunk as FIRST_OCUR exactly when its
// insert succeeds.
//
// The table never rehashes: like its Kokkos counterpart it is sized up
// front (the dedup layer sizes it to hold every tree node of the
// checkpoint record) and reports failure when full.
package hashmap

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

// Entry records where a digest was first observed: the Merkle tree
// node covering the region and the checkpoint in which it appeared.
type Entry struct {
	Node uint32 // tree node index of the first occurrence
	Ckpt uint32 // checkpoint id of the first occurrence
}

func (e Entry) pack() uint64   { return uint64(e.Node)<<32 | uint64(e.Ckpt) }
func unpack(v uint64) Entry    { return Entry{Node: uint32(v >> 32), Ckpt: uint32(v)} }
func (e Entry) String() string { return fmt.Sprintf("(node=%d,ckpt=%d)", e.Node, e.Ckpt) }

// slot states. A slot moves empty -> claiming -> full exactly once;
// keys are immutable after publication, values may be CAS-updated.
const (
	slotEmpty uint32 = iota
	slotClaiming
	slotFull
)

// ErrFull is returned when an insert cannot find a free slot.
var ErrFull = errors.New("hashmap: table full")

// slot is one table entry: 32 bytes, so a 64-byte cache line holds two
// and a probe that resolves in its home slot — state, both key words
// and the value — costs one line however far the table outgrows the
// cache ("Analysing the Performance of GPU Hash Tables" picks
// one-cache-line buckets for the same reason; one array per field
// would cost up to four misses a probe).
type slot struct {
	state  atomic.Uint32
	h1, h2 uint64
	val    atomic.Uint64
}

// Map is the concurrent digest table. All methods are safe for
// concurrent use by any number of goroutines.
type Map struct {
	mask  uint64
	slots []slot
	size  atomic.Int64
}

// New creates a map with capacity for at least n entries. The backing
// table is sized to the next power of two of 2n to keep the load
// factor at or below 0.5, matching the sizing discipline of GPU open
// addressing tables.
func New(n int) *Map {
	if n < 1 {
		n = 1
	}
	capacity := 1 << bits.Len64(uint64(2*n-1))
	if capacity < 8 {
		capacity = 8
	}
	return &Map{mask: uint64(capacity - 1), slots: make([]slot, capacity)}
}

// Capacity returns the number of slots in the backing table.
func (m *Map) Capacity() int { return int(m.mask + 1) }

// Size returns the number of entries currently stored.
func (m *Map) Size() int { return int(m.size.Load()) }

// probe start: the digest is already a high-quality hash, so its low
// bits index directly; linear probing keeps neighboring probes in
// cache, the CPU analog of coalesced accesses.
func (m *Map) home(d murmur3.Digest) uint64 { return d.H1 & m.mask }

// InsertIfAbsent inserts (d, e) if d is not present. It returns the
// entry now associated with d and inserted=true when this call
// performed the insert. When d was already present (or became present
// concurrently), inserted is false and prev holds the existing entry.
// Returns ErrFull when no slot is available.
func (m *Map) InsertIfAbsent(d murmur3.Digest, e Entry) (prev Entry, inserted bool, err error) {
	idx := m.home(d)
	for probes := uint64(0); probes <= m.mask; probes++ {
		s := &m.slots[(idx+probes)&m.mask]
		for {
			switch s.state.Load() {
			case slotEmpty:
				if s.state.CompareAndSwap(slotEmpty, slotClaiming) {
					s.h1 = d.H1
					s.h2 = d.H2
					s.val.Store(e.pack())
					s.state.Store(slotFull)
					m.size.Add(1)
					return e, true, nil
				}
				continue // lost the race; re-inspect the slot
			case slotClaiming:
				// Another goroutine is publishing this slot; yield
				// until the key is visible.
				runtime.Gosched()
				continue
			case slotFull:
				if s.h1 == d.H1 && s.h2 == d.H2 {
					return unpack(s.val.Load()), false, nil
				}
			}
			break // full with a different key: advance the probe
		}
	}
	return Entry{}, false, ErrFull
}

// Find returns the entry associated with d.
func (m *Map) Find(d murmur3.Digest) (Entry, bool) {
	idx := m.home(d)
	for probes := uint64(0); probes <= m.mask; probes++ {
		s := &m.slots[(idx+probes)&m.mask]
		switch s.state.Load() {
		case slotEmpty:
			return Entry{}, false
		case slotClaiming:
			// Key not yet visible; treat as a potential match being
			// published and spin briefly by retrying the same slot.
			for s.state.Load() == slotClaiming {
				runtime.Gosched()
			}
			if s.state.Load() == slotFull && s.h1 == d.H1 && s.h2 == d.H2 {
				return unpack(s.val.Load()), true
			}
		case slotFull:
			if s.h1 == d.H1 && s.h2 == d.H2 {
				return unpack(s.val.Load()), true
			}
		}
	}
	return Entry{}, false
}

// Contains reports whether d is present.
func (m *Map) Contains(d murmur3.Digest) bool {
	_, ok := m.Find(d)
	return ok
}

// UpdateIfEarlier atomically replaces the entry for d with e when e
// belongs to the same checkpoint and covers an earlier node than the
// stored entry. It implements lines 13-16 of Algorithm 1: when two
// identical chunks appear in the same checkpoint, the earliest offset
// is canonical and the later one becomes a shifted duplicate. Returns
// the entry that lost the comparison (the one demoted to SHIFT_DUPL)
// and whether a swap occurred.
func (m *Map) UpdateIfEarlier(d murmur3.Digest, e Entry) (demoted Entry, swapped bool) {
	idx := m.home(d)
	for probes := uint64(0); probes <= m.mask; probes++ {
		s := &m.slots[(idx+probes)&m.mask]
		switch s.state.Load() {
		case slotEmpty:
			return Entry{}, false
		case slotClaiming:
			for s.state.Load() == slotClaiming {
				runtime.Gosched()
			}
			fallthrough
		case slotFull:
			if s.h1 != d.H1 || s.h2 != d.H2 {
				continue
			}
			for {
				cur := s.val.Load()
				curE := unpack(cur)
				if curE.Ckpt != e.Ckpt || e.Node >= curE.Node {
					return curE, false
				}
				if s.val.CompareAndSwap(cur, e.pack()) {
					return curE, true
				}
			}
		}
	}
	return Entry{}, false
}

// Range calls fn for every (digest, entry) pair. It must not run
// concurrently with writers; it exists for tests and diagnostics.
func (m *Map) Range(fn func(d murmur3.Digest, e Entry) bool) {
	for i := range m.slots {
		s := &m.slots[i]
		if s.state.Load() == slotFull {
			if !fn(murmur3.Digest{H1: s.h1, H2: s.h2}, unpack(s.val.Load())) {
				return
			}
		}
	}
}
