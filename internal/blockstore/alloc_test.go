package blockstore

import "testing"

// TestInternAllocs pins what one Intern allocates on the push path — a
// batch of new blocks, and a batch of blocks already present — at the
// reference slice alone: neither the shared append nor a block's layout
// may put a new allocation there. It runs over random blocks, stored
// raw, and over batches of raw, packed and delta-packed ones.
func TestInternAllocs(t *testing.T) {
	for _, sh := range []struct {
		name    string
		payload func(seed int64, n int) []byte
	}{{"raw", testPayload}, {"layouts", layoutPayload}} {
		t.Run(sh.name, func(t *testing.T) { internAllocs(t, sh.payload) })
	}
}

func internAllocs(t *testing.T, payload func(seed int64, n int) []byte) {
	s := mustOpen(t, t.TempDir())
	const runs = 20
	batches := make([][][]byte, runs+1) // AllocsPerRun warms up once
	for i := range batches {
		for j := 0; j < 16; j++ {
			batches[i] = append(batches[i], payload(int64(i*100+j), 4096))
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

// Measured with delta-packed records (go1.24).
const internAllocsNew, internAllocsHit = 1, 1
