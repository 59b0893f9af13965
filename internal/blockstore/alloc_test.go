package blockstore

import "testing"

// TestInternAllocs pins what one Intern allocates on the push path — a
// batch of new blocks, and a batch of blocks already present — at the
// counts measured before the append ladder moved into recframe: the
// shared append must not put a new allocation there.
func TestInternAllocs(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const runs = 20
	batches := make([][][]byte, runs+1) // AllocsPerRun warms up once
	for i := range batches {
		for j := 0; j < 16; j++ {
			batches[i] = append(batches[i], testPayload(int64(i*100+j), 4096))
		}
	}
	if _, err := s.Intern(batches[0][:1]); err != nil { // the first pack exists
		t.Fatal(err)
	}
	next := 0
	fresh := testing.AllocsPerRun(runs, func() {
		if _, err := s.Intern(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	hits := testing.AllocsPerRun(runs, func() {
		if _, err := s.Intern(batches[0]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Intern of 16 blocks: %.0f allocs all new, %.0f all present", fresh, hits)
	if fresh > internAllocsNew || hits > internAllocsHit {
		t.Fatalf("Intern of 16 blocks allocates %.0f (all new) / %.0f (all present), want at most %d / %d", fresh, hits, internAllocsNew, internAllocsHit)
	}
}

// Measured at e640187 (go1.24): one per chunk for its ID, the reference
// slice, and the offset writer the shared append no longer needs.
const internAllocsNew, internAllocsHit = 18, 18
