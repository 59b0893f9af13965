package blockstore

import (
	"encoding/binary"
	"testing"
)

// benchBlocks returns n distinct 4 KiB blocks; round makes them differ
// from every other round's.
func benchBlocks(n, round int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = testPayload(1, 4096)
		binary.LittleEndian.PutUint64(blocks[i], uint64(round)<<32|uint64(i))
	}
	return blocks
}

func benchStore(b *testing.B) *Store {
	s, err := New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkInternAllNew interns batches of 256 blocks the store has
// never seen: one frame and one fsync per batch.
func BenchmarkInternAllNew(b *testing.B) {
	s := benchStore(b)
	b.SetBytes(256 * 4096)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := benchBlocks(256, i)
		b.StartTimer()
		if _, err := s.Intern(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInternHit interns a batch whose every block is present,
// which writes nothing.
func BenchmarkInternHit(b *testing.B) {
	s := benchStore(b)
	batch := benchBlocks(256, 0)
	if _, err := s.Intern(batch); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Intern(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet reads and fully verifies one block per iteration.
func BenchmarkGet(b *testing.B) {
	s := benchStore(b)
	refs, err := s.Intern(benchBlocks(256, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(refs[i%len(refs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen reopens a store of 8192 blocks (32 MiB): "log" as the
// library path leaves it — no snapshot, so the open verifies every
// stored byte — and "snapshot" after the GC a server runs, where it
// loads the index and scans only the log past it.
func BenchmarkOpen(b *testing.B) {
	for _, mode := range []string{"log", "snapshot"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			s, err := New(dir)
			if err != nil {
				b.Fatal(err)
			}
			for round := 0; round < 32; round++ {
				if _, err := s.Intern(benchBlocks(256, round)); err != nil {
					b.Fatal(err)
				}
			}
			if mode == "snapshot" {
				if _, err := s.GC(markAll(s)); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
			b.SetBytes(32 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(dir)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
