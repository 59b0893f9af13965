package checkpoint

import "testing"

// TestAppendAllocs pins what one FileStore.Append allocates, with and
// without a block store, at the counts measured before the append
// ladder moved into recframe: the shared append must not put a new
// allocation on the push path.
func TestAppendAllocs(t *testing.T) {
	for _, blocks := range []bool{false, true} {
		env := lineageEnv{root: t.TempDir(), blocks: blocks}
		fs, bs := env.open(t)
		const runs = 20
		diffs := make([]*Diff, runs+2) // a first append, and AllocsPerRun warms up once
		for ck := range diffs {
			diffs[ck] = randomDiff(ck, int64(ck), 640)
		}
		if err := fs.Append(diffs[0]); err != nil { // the segment exists
			t.Fatal(err)
		}
		next := 1
		got := testing.AllocsPerRun(runs, func() {
			if err := fs.Append(diffs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		closeEnv(fs, bs)
		want := appendAllocs
		if blocks {
			want = appendAllocsBlocks
		}
		t.Logf("blocks=%v: Append allocates %.0f", blocks, got)
		if got > float64(want) {
			t.Fatalf("blocks=%v: Append allocates %.0f, want at most %d", blocks, got, want)
		}
	}
}

// What Append allocates, measured at 293be81 (go1.24, also under -race):
// one without a block store, five with one.
const appendAllocs, appendAllocsBlocks = 1, 5
