package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolConcurrentLaunchStress drives many goroutines through one
// shared Pool at once, mixing ForRange, ScanExclusive and For
// launches. Run under -race this exercises the descriptor recycling
// and cooperative block claiming of the persistent workers.
func TestPoolConcurrentLaunchStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	const (
		goroutines = 8
		rounds     = 50
		n          = 4096 // above inlineThreshold so launches hit the pool
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := make([]int64, n)
			out := make([]int64, n)
			for i := range in {
				in[i] = int64(i % 7)
			}
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0:
					var sum atomic.Int64
					p.ForRange(n, func(lo, hi int) {
						var s int64
						for i := lo; i < hi; i++ {
							s += int64(i)
						}
						sum.Add(s)
					})
					want := int64(n) * int64(n-1) / 2
					if got := sum.Load(); got != want {
						t.Errorf("goroutine %d round %d: ForRange sum = %d, want %d", g, r, got, want)
						return
					}
				case 1:
					total := ScanExclusive(p, in, out)
					var want int64
					for i := 0; i < n; i++ {
						if out[i] != want {
							t.Errorf("goroutine %d round %d: scan[%d] = %d, want %d", g, r, i, out[i], want)
							return
						}
						want += in[i]
					}
					if total != want {
						t.Errorf("goroutine %d round %d: scan total = %d, want %d", g, r, total, want)
						return
					}
				case 2:
					var visits atomic.Int64
					p.For(n, func(int) { visits.Add(1) })
					if got := visits.Load(); got != n {
						t.Errorf("goroutine %d round %d: For visits = %d, want %d", g, r, got, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolCloseContract pins down the Close semantics: idempotent, and
// any launch after Close panics.
func TestPoolCloseContract(t *testing.T) {
	p := NewPool(4)
	p.For(1000, func(int) {})
	p.Close()
	p.Close() // idempotent

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on closed Pool did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("ForRange", func() { p.ForRange(1000, func(lo, hi int) {}) })
	mustPanic("For", func() { p.For(1000, func(int) {}) })
	mustPanic("inline ForRange", func() { p.ForRange(4, func(lo, hi int) {}) })
	mustPanic("ScanExclusive", func() {
		in := make([]int64, 1000)
		ScanExclusive(p, in, in)
	})
}

// TestPoolSingleWorkerHasNoHelpers checks that a 1-worker pool runs
// everything inline and Close is still safe.
func TestPoolSingleWorkerHasNoHelpers(t *testing.T) {
	p := NewPool(1)
	var sum int64 // no atomics needed: everything runs on this goroutine
	p.ForRange(100000, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += int64(i)
		}
	})
	if want := int64(100000) * 99999 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	p.Close()
}

// TestPoolTinyLaunchInline verifies the short-circuit: a launch below
// the inline threshold must execute on the submitting goroutine even
// on a multi-worker pool (checked by writing to a plain variable).
func TestPoolTinyLaunchInline(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	ran := false
	p.ForRange(inlineThreshold-1, func(lo, hi int) {
		if lo != 0 || hi != inlineThreshold-1 {
			t.Errorf("inline launch got block [%d,%d), want [0,%d)", lo, hi, inlineThreshold-1)
		}
		ran = true
	})
	if !ran {
		t.Fatal("inline body did not run")
	}
}
