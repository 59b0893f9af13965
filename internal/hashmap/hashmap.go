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
// front, to exactly 2 slots per requested entry (the dedup layer sizes
// it to hold every tree node of the checkpoint record), and reports
// failure when full.
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

// Slot states, folded into the value word. A slot moves empty ->
// claiming -> full exactly once; keys are immutable after publication,
// values may be CAS-updated from one full value to another.
const (
	valEmpty    uint64 = iota // no key
	valClaiming               // key being written by the claiming inserter
	valFull                   // values >= valFull hold pack() + valFull
)

// encode returns the value word of a full slot holding e. The entries
// Node = MaxUint32 with Ckpt >= MaxUint32-1 would wrap onto the state
// codes and are refused.
func (e Entry) encode() (uint64, error) {
	v := e.pack() + valFull
	if v < valFull {
		return 0, fmt.Errorf("%w: %v", ErrReservedEntry, e)
	}
	return v, nil
}

func decode(v uint64) Entry { return unpack(v - valFull) }

// ErrFull is returned when an insert cannot find a free slot.
var ErrFull = errors.New("hashmap: table full")

// ErrReservedEntry is returned for an entry whose encoding collides
// with a slot state: Node = MaxUint32 with Ckpt >= MaxUint32-1.
var ErrReservedEntry = errors.New("hashmap: entry encodes to a reserved slot state")

// minSlots is the smallest table New builds.
const minSlots = 8

// slot is one table entry: 24 bytes, the state folded into the value
// word. A probe that resolves in its home slot reads one cache line,
// or two for the quarter of slots that straddle a 64-byte line
// ("Analysing the Performance of GPU Hash Tables" argues for compact
// slots sized to the load factor; one array per field would cost up
// to three misses a probe).
type slot struct {
	h1, h2 uint64
	val    atomic.Uint64
}

// Map is the concurrent digest table. All methods are safe for
// concurrent use by any number of goroutines.
type Map struct {
	slots []slot
	size  atomic.Int64
}

// New creates a map with capacity for n entries at a load factor of at
// most 0.5: a table of exactly max(2n, 8) slots, allocated whole here
// so that no insert allocates.
func New(n int) *Map {
	return &Map{slots: make([]slot, max(2*n, minSlots))}
}

// Capacity returns the number of slots in the backing table.
func (m *Map) Capacity() int { return len(m.slots) }

// Size returns the number of entries currently stored.
func (m *Map) Size() int { return int(m.size.Load()) }

// home is the probe start: the digest is already a high-quality hash,
// so the high word of H1 × slots maps it uniformly onto any slot count
// without a power-of-two mask; linear probing keeps neighboring probes
// in cache, the CPU analog of coalesced accesses.
func (m *Map) home(d murmur3.Digest) int {
	hi, _ := bits.Mul64(d.H1, uint64(len(m.slots)))
	return int(hi)
}

// next advances a linear probe, wrapping at the slot count.
func (m *Map) next(i int) int {
	if i++; i == len(m.slots) {
		return 0
	}
	return i
}

// lookup returns the slot holding d and its value word, or nil when a
// probe reaches an empty slot or has visited every slot.
func (m *Map) lookup(d murmur3.Digest) (*slot, uint64) {
	i := m.home(d)
	for range m.slots {
		s := &m.slots[i]
		v := s.val.Load()
		for v == valClaiming {
			// Another goroutine is publishing this slot; yield until
			// the key is visible.
			runtime.Gosched()
			v = s.val.Load()
		}
		if v == valEmpty {
			return nil, 0
		}
		if s.h1 == d.H1 && s.h2 == d.H2 {
			return s, v
		}
		i = m.next(i)
	}
	return nil, 0
}

// InsertIfAbsent inserts (d, e) if d is not present. It returns the
// entry now associated with d and inserted=true when this call
// performed the insert. When d was already present (or became present
// concurrently), inserted is false and prev holds the existing entry.
// Returns ErrFull when no slot is available and ErrReservedEntry for
// an entry the table cannot store.
func (m *Map) InsertIfAbsent(d murmur3.Digest, e Entry) (prev Entry, inserted bool, err error) {
	ev, err := e.encode()
	if err != nil {
		return Entry{}, false, err
	}
	i := m.home(d)
	for range m.slots {
		s := &m.slots[i]
		for {
			v := s.val.Load()
			switch v {
			case valEmpty:
				if s.val.CompareAndSwap(valEmpty, valClaiming) {
					s.h1 = d.H1
					s.h2 = d.H2
					s.val.Store(ev)
					m.size.Add(1)
					return e, true, nil
				}
				continue // lost the race; re-inspect the slot
			case valClaiming:
				runtime.Gosched()
				continue
			}
			if s.h1 == d.H1 && s.h2 == d.H2 {
				return decode(v), false, nil
			}
			break // full with a different key: advance the probe
		}
		i = m.next(i)
	}
	return Entry{}, false, ErrFull
}

// Prefetch reads the value word of d's home slot and discards it, so a
// later probe for d starts in cache. It changes nothing. InsertIfAbsent
// ends in a compare-and-swap, which later loads cannot pass on x86, so
// a run of inserts pays one cache miss after another; prefetching a
// batch of digests before inserting them lets those misses overlap,
// as thousands of GPU threads overlap theirs. The read is atomic, so a
// concurrent insert is no data race, and the compiler keeps it.
func (m *Map) Prefetch(d murmur3.Digest) {
	m.slots[m.home(d)].val.Load()
}

// Find returns the entry associated with d.
func (m *Map) Find(d murmur3.Digest) (Entry, bool) {
	s, v := m.lookup(d)
	if s == nil {
		return Entry{}, false
	}
	return decode(v), true
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
// and whether a swap occurred, or ErrReservedEntry for an entry the
// table cannot store.
func (m *Map) UpdateIfEarlier(d murmur3.Digest, e Entry) (demoted Entry, swapped bool, err error) {
	ev, err := e.encode()
	if err != nil {
		return Entry{}, false, err
	}
	s, v := m.lookup(d)
	if s == nil {
		return Entry{}, false, nil
	}
	for {
		cur := decode(v)
		if cur.Ckpt != e.Ckpt || e.Node >= cur.Node {
			return cur, false, nil
		}
		if s.val.CompareAndSwap(v, ev) {
			return cur, true, nil
		}
		v = s.val.Load()
	}
}

// Range calls fn for every (digest, entry) pair. It must not run
// concurrently with writers; it exists for tests and diagnostics.
func (m *Map) Range(fn func(d murmur3.Digest, e Entry) bool) {
	for i := range m.slots {
		s := &m.slots[i]
		if v := s.val.Load(); v >= valFull {
			if !fn(murmur3.Digest{H1: s.h1, H2: s.h2}, decode(v)) {
				return
			}
		}
	}
}
