package hashmap

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

func digestOf(i int) murmur3.Digest {
	var b [8]byte
	b[0] = byte(i)
	b[1] = byte(i >> 8)
	b[2] = byte(i >> 16)
	b[3] = byte(i >> 24)
	return murmur3.Sum128(b[:], 99)
}

func TestInsertFind(t *testing.T) {
	m := New(100)
	for i := 0; i < 100; i++ {
		e := Entry{Node: uint32(i), Ckpt: 7}
		prev, inserted, err := m.InsertIfAbsent(digestOf(i), e)
		if err != nil || !inserted || prev != e {
			t.Fatalf("insert %d: prev=%v inserted=%v err=%v", i, prev, inserted, err)
		}
	}
	if m.Size() != 100 {
		t.Fatalf("size=%d want 100", m.Size())
	}
	for i := 0; i < 100; i++ {
		got, ok := m.Find(digestOf(i))
		if !ok || got.Node != uint32(i) || got.Ckpt != 7 {
			t.Fatalf("find %d: got=%v ok=%v", i, got, ok)
		}
	}
	if _, ok := m.Find(digestOf(1000)); ok {
		t.Fatal("found digest that was never inserted")
	}
	if m.Contains(digestOf(1000)) {
		t.Fatal("contains digest that was never inserted")
	}
}

func TestInsertDuplicateReturnsExisting(t *testing.T) {
	m := New(10)
	d := digestOf(1)
	first := Entry{Node: 5, Ckpt: 0}
	if _, inserted, _ := m.InsertIfAbsent(d, first); !inserted {
		t.Fatal("first insert failed")
	}
	prev, inserted, err := m.InsertIfAbsent(d, Entry{Node: 9, Ckpt: 1})
	if err != nil || inserted {
		t.Fatalf("duplicate insert reported inserted=%v err=%v", inserted, err)
	}
	if prev != first {
		t.Fatalf("duplicate insert returned %v, want %v", prev, first)
	}
	if m.Size() != 1 {
		t.Fatalf("size=%d want 1", m.Size())
	}
}

func TestFullTable(t *testing.T) {
	m := New(1)
	capacity := m.Capacity()
	var errs int
	for i := 0; i < capacity+10; i++ {
		_, _, err := m.InsertIfAbsent(digestOf(i), Entry{Node: uint32(i)})
		if err != nil {
			errs++
		}
	}
	if errs != 10 {
		t.Fatalf("got %d ErrFull, want 10 (capacity=%d)", errs, capacity)
	}
}

func TestUpdateIfEarlier(t *testing.T) {
	m := New(10)
	d := digestOf(3)
	m.InsertIfAbsent(d, Entry{Node: 50, Ckpt: 2})

	// Later node in same checkpoint: no swap.
	if _, swapped, _ := m.UpdateIfEarlier(d, Entry{Node: 60, Ckpt: 2}); swapped {
		t.Fatal("swapped with a later node")
	}
	// Different checkpoint: no swap even if node is earlier.
	if _, swapped, _ := m.UpdateIfEarlier(d, Entry{Node: 10, Ckpt: 3}); swapped {
		t.Fatal("swapped across checkpoints")
	}
	// Earlier node, same checkpoint: swap and report demoted entry.
	demoted, swapped, err := m.UpdateIfEarlier(d, Entry{Node: 20, Ckpt: 2})
	if !swapped || demoted.Node != 50 || err != nil {
		t.Fatalf("swap failed: demoted=%v swapped=%v err=%v", demoted, swapped, err)
	}
	got, _ := m.Find(d)
	if got.Node != 20 {
		t.Fatalf("entry after swap = %v, want node 20", got)
	}
	// Missing digest: no swap.
	if _, swapped, _ := m.UpdateIfEarlier(digestOf(999), Entry{}); swapped {
		t.Fatal("swapped a missing digest")
	}
}

func TestConcurrentDistinctInserts(t *testing.T) {
	const n = 20000
	m := New(n)
	var wg sync.WaitGroup
	workers := 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if _, inserted, err := m.InsertIfAbsent(digestOf(i), Entry{Node: uint32(i)}); err != nil || !inserted {
					t.Errorf("insert %d failed: inserted=%v err=%v", i, inserted, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Size() != n {
		t.Fatalf("size=%d want %d", m.Size(), n)
	}
	for i := 0; i < n; i++ {
		if e, ok := m.Find(digestOf(i)); !ok || e.Node != uint32(i) {
			t.Fatalf("lost entry %d: %v %v", i, e, ok)
		}
	}
}

// TestConcurrentRacingInserts verifies first-inserter-wins: many
// goroutines insert the same digest; exactly one must report
// inserted=true and everyone must agree on the winning entry.
func TestConcurrentRacingInserts(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		m := New(64)
		d := digestOf(trial)
		var wins int64
		var winner atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				e := Entry{Node: uint32(g), Ckpt: 1}
				prev, inserted, err := m.InsertIfAbsent(d, e)
				if err != nil {
					t.Errorf("unexpected error: %v", err)
					return
				}
				if inserted {
					atomic.AddInt64(&wins, 1)
					winner.Store(uint64(prev.Node) + 1)
				}
			}(g)
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("trial %d: %d winners, want 1", trial, wins)
		}
		got, ok := m.Find(d)
		if !ok || uint64(got.Node)+1 != winner.Load() {
			t.Fatalf("trial %d: final entry %v does not match winner", trial, got)
		}
	}
}

// TestConcurrentUpdateConvergesToMinimum races UpdateIfEarlier from
// many goroutines: the stored node must converge to the global
// minimum, which is what guarantees deterministic FIRST_OCUR labels.
func TestConcurrentUpdateConvergesToMinimum(t *testing.T) {
	m := New(8)
	d := digestOf(0)
	m.InsertIfAbsent(d, Entry{Node: 1 << 30, Ckpt: 5})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.UpdateIfEarlier(d, Entry{Node: uint32(g*100 + i), Ckpt: 5})
			}
		}(g)
	}
	wg.Wait()
	got, _ := m.Find(d)
	if got.Node != 0 {
		t.Fatalf("converged to node %d, want 0", got.Node)
	}
}

func TestRange(t *testing.T) {
	m := New(16)
	for i := 0; i < 10; i++ {
		m.InsertIfAbsent(digestOf(i), Entry{Node: uint32(i)})
	}
	count := 0
	m.Range(func(d murmur3.Digest, e Entry) bool {
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("ranged over %d entries, want 10", count)
	}
	count = 0
	m.Range(func(murmur3.Digest, Entry) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-exit range visited %d entries, want 1", count)
	}
}

func TestEntryPackRoundTrip(t *testing.T) {
	roundTrips := func(node, ckpt uint32) bool {
		e := Entry{Node: node, Ckpt: ckpt}
		v, err := e.encode()
		return unpack(e.pack()) == e && err == nil && v >= valFull && decode(v) == e
	}
	if err := quick.Check(roundTrips, nil); err != nil {
		t.Fatal(err)
	}
	// quick.Check never draws the extremes: the largest storable
	// entries sit just below the ones that wrap onto the state codes.
	for _, e := range []Entry{
		{0, 0}, {0, math.MaxUint32}, {math.MaxUint32, 0},
		{math.MaxUint32 - 1, math.MaxUint32}, {math.MaxUint32, math.MaxUint32 - 2},
	} {
		if !roundTrips(e.Node, e.Ckpt) {
			t.Errorf("%v does not round-trip", e)
		}
	}
	for _, e := range []Entry{{math.MaxUint32, math.MaxUint32 - 1}, {math.MaxUint32, math.MaxUint32}} {
		if _, err := e.encode(); !errors.Is(err, ErrReservedEntry) {
			t.Errorf("encode(%v) = %v, want ErrReservedEntry", e, err)
		}
	}
}

// TestReservedEntryRefused: an entry that would encode to the empty or
// claiming state is refused by both writers and leaves the table as it
// was.
func TestReservedEntryRefused(t *testing.T) {
	m := New(4)
	d := digestOf(1)
	for _, e := range []Entry{{math.MaxUint32, math.MaxUint32 - 1}, {math.MaxUint32, math.MaxUint32}} {
		if _, inserted, err := m.InsertIfAbsent(d, e); inserted || !errors.Is(err, ErrReservedEntry) {
			t.Fatalf("InsertIfAbsent(%v): inserted=%v err=%v, want ErrReservedEntry", e, inserted, err)
		}
		if m.Size() != 0 || m.Contains(d) {
			t.Fatalf("refused insert of %v left size %d", e, m.Size())
		}
	}
	stored := Entry{Node: 7, Ckpt: math.MaxUint32 - 1}
	if _, _, err := m.InsertIfAbsent(d, stored); err != nil {
		t.Fatal(err)
	}
	if _, swapped, err := m.UpdateIfEarlier(d, Entry{math.MaxUint32, math.MaxUint32 - 1}); swapped || !errors.Is(err, ErrReservedEntry) {
		t.Fatalf("UpdateIfEarlier: swapped=%v err=%v, want ErrReservedEntry", swapped, err)
	}
	if got, _ := m.Find(d); got != stored {
		t.Fatalf("entry after refused update = %v, want %v", got, stored)
	}
}

// TestNewSmall: a request for no entries still gets the minimum table.
func TestNewSmall(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if c := New(n).Capacity(); c != minSlots {
			t.Fatalf("New(%d) capacity %d, want %d", n, c, minSlots)
		}
	}
}

// TestTableIsTwiceCapacity: the table is exactly 2n slots of 24
// bytes, not rounded up to a power of two.
func TestTableIsTwiceCapacity(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 24 {
		t.Fatalf("slot is %d bytes, want 24", size)
	}
	for _, n := range []int{3, 4, 5, 7, 100, 1000, 374_123} {
		if got, want := New(n).Capacity(), max(2*n, minSlots); got != want {
			t.Errorf("New(%d).Capacity() = %d, want %d", n, got, want)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	m := New(b.N)
	digests := make([]murmur3.Digest, b.N)
	for i := range digests {
		digests[i] = digestOf(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InsertIfAbsent(digests[i], Entry{Node: uint32(i)})
	}
}

func BenchmarkFindHit(b *testing.B) {
	const n = 1 << 16
	m := New(n)
	digests := make([]murmur3.Digest, n)
	for i := range digests {
		digests[i] = digestOf(i)
		m.InsertIfAbsent(digests[i], Entry{Node: uint32(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Find(digests[i&(n-1)])
	}
}

// scatteredEntries sizes the table of the scattered-insert benchmarks:
// 2²³ slots of 24 bytes, 192 MiB, more than the last-level cache of the
// 105 MiB-L3 hosts they were measured on. The historical record of
// bench/'s 8 MiB chains is 55 MB.
const scatteredEntries = 1 << 22

// scatteredDigest returns the i-th digest of the scattered-insert
// benchmarks: H1 through the splitmix64 finalizer, so home slots land
// uniformly across the table at a few nanoseconds a digest; H2 = i
// keeps every digest distinct.
func scatteredDigest(i uint64) murmur3.Digest {
	z := (i + 1) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return murmur3.Digest{H1: z ^ z>>31, H2: i}
}

// benchmarkInsertScattered inserts fresh digests, a run of 64 at a
// time, into a table larger than the last-level cache, so nearly every
// insert misses. With prefetch each run's home slots are read before
// any of its inserts, as the leaf sweep does. The table is emptied off
// the clock whenever its load factor would pass 0.25.
func benchmarkInsertScattered(b *testing.B, prefetch bool) {
	const run = 64
	m := New(scatteredEntries)
	var ds [run]murmur3.Digest
	var next uint64
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := min(run, b.N-done)
		if m.Size()+k > scatteredEntries/2 {
			b.StopTimer()
			clear(m.slots)
			m.size.Store(0)
			b.StartTimer()
		}
		for j := range ds[:k] {
			ds[j] = scatteredDigest(next)
			next++
		}
		if prefetch {
			for _, d := range ds[:k] {
				m.Prefetch(d)
			}
		}
		for j, d := range ds[:k] {
			if _, _, err := m.InsertIfAbsent(d, Entry{Node: uint32(j)}); err != nil {
				b.Fatal(err)
			}
		}
		done += k
	}
}

func BenchmarkInsertScatteredSequential(b *testing.B) { benchmarkInsertScattered(b, false) }
func BenchmarkInsertScatteredPrefetched(b *testing.B) { benchmarkInsertScattered(b, true) }

// TestProbeWraparound fills a small table so probes must wrap past the
// end of the slot array and still find/insert correctly.
func TestProbeWraparound(t *testing.T) {
	m := New(5) // 10 slots: the probe wraps at the slot count, not at a mask
	capacity := m.Capacity()
	inserted := 0
	for i := 0; inserted < capacity; i++ {
		if _, ok, err := m.InsertIfAbsent(digestOf(i), Entry{Node: uint32(i)}); err != nil {
			t.Fatalf("table filled early at %d/%d", inserted, capacity)
		} else if ok {
			inserted++
		}
	}
	// Every inserted key is findable even with a 100% load factor.
	found := 0
	for i := 0; found < capacity && i < capacity*64; i++ {
		if e, ok := m.Find(digestOf(i)); ok {
			if e.Node != uint32(i) {
				t.Fatalf("key %d maps to %v", i, e)
			}
			found++
		}
	}
	if found != capacity {
		t.Fatalf("found %d of %d keys in a full table", found, capacity)
	}
	// Updates work at full load too.
	if _, _, err := m.UpdateIfEarlier(digestOf(0), Entry{Node: 0, Ckpt: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestFindMissingInFullTable(t *testing.T) {
	m := New(2)
	capacity := m.Capacity()
	inserted := 0
	for i := 0; inserted < capacity; i++ {
		if _, ok, _ := m.InsertIfAbsent(digestOf(i), Entry{}); ok {
			inserted++
		}
	}
	// A missing key in a full table must terminate (probe bound).
	if _, ok := m.Find(digestOf(1 << 20)); ok {
		t.Fatal("found key that was never inserted")
	}
	if _, ok, _ := m.UpdateIfEarlier(digestOf(1<<20), Entry{}); ok {
		t.Fatal("updated key that was never inserted")
	}
}
