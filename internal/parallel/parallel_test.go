package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 100, 1023} {
			hits := make([]int32, n)
			p.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForRangePartition(t *testing.T) {
	p := NewPool(4)
	n := 1000
	var covered int64
	p.ForRange(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&covered, int64(hi-lo))
	})
	if covered != int64(n) {
		t.Fatalf("covered %d of %d iterations", covered, n)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	p := NewPool(4)
	called := false
	p.For(0, func(int) { called = true })
	p.For(-5, func(int) { called = true })
	p.ForRange(0, func(int, int) { called = true })
	if called {
		t.Fatal("body invoked for empty iteration space")
	}
}

func TestScanExclusiveMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		p := NewPool(workers)
		rng := rand.New(rand.NewSource(42))
		for _, n := range []int{0, 1, 2, 3, 17, 256, 4097} {
			in := make([]int64, n)
			for i := range in {
				in[i] = int64(rng.Intn(1000))
			}
			want := make([]int64, n)
			var acc int64
			for i := 0; i < n; i++ {
				want[i] = acc
				acc += in[i]
			}
			out := make([]int64, n)
			total := ScanExclusive(p, in, out)
			if total != acc {
				t.Fatalf("workers=%d n=%d total=%d want %d", workers, n, total, acc)
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("workers=%d n=%d out[%d]=%d want %d", workers, n, i, out[i], want[i])
				}
			}
		}
	}
}

func TestScanExclusiveInPlace(t *testing.T) {
	p := NewPool(4)
	in := []int64{5, 3, 8, 1}
	total := ScanExclusive(p, in, in)
	want := []int64{0, 5, 8, 16}
	if total != 17 {
		t.Fatalf("total=%d want 17", total)
	}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("in-place scan wrong at %d: %v", i, in)
		}
	}
}

func TestScanExclusiveLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	ScanExclusive(NewPool(2), make([]int64, 3), make([]int64, 4))
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	if NewPool(-3).Workers() < 1 {
		t.Fatal("negative pool has no workers")
	}
	if NewPool(7).Workers() != 7 {
		t.Fatal("explicit worker count not honored")
	}
}

func BenchmarkParallelForHash(b *testing.B) {
	p := NewPool(0)
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var sink int64
		p.ForRange(len(data)/64, func(lo, hi int) {
			var acc int64
			for c := lo; c < hi; c++ {
				for _, by := range data[c*64 : c*64+64] {
					acc += int64(by)
				}
			}
			atomic.AddInt64(&sink, acc)
		})
	}
}
