package lifecycle

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/dedup"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// crashAt returns store hooks that simulate a crash at seam point.
func crashAt(point string) *recframe.Hooks {
	return &recframe.Hooks{Seam: func(p, _ string) error {
		if p == point {
			return checkpoint.ErrSimulatedCrash
		}
		return nil
	}}
}

const (
	testChunk  = 64
	poolChunks = 32 // chunks 0..31 rotate content first seen at checkpoint 0
	flipChunks = 32 // chunks 32..63 get fresh content with period 4
	testLen    = (poolChunks + flipChunks) * testChunk
)

// buildImages generates a deterministic series of n buffer states with
// heavy cross-checkpoint duplication: the pool region of every
// checkpoint i > 0 is a rotation of content first stored at checkpoint
// 0, so List/Tree diffs carry shifted-duplicate references to
// checkpoint 0 — exactly the references a compaction folds away and
// must rewrite. The flip region injects fresh data every step so every
// diff also stores first occurrences.
func buildImages(n int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	pool := make([][]byte, poolChunks)
	for i := range pool {
		pool[i] = make([]byte, testChunk)
		rng.Read(pool[i])
	}
	images := make([][]byte, n)
	cur := make([]byte, testLen)
	for i := 0; i < n; i++ {
		for c := 0; c < poolChunks; c++ {
			copy(cur[c*testChunk:], pool[(c+i)%poolChunks])
		}
		for c := poolChunks; c < poolChunks+flipChunks; c++ {
			if (c+i)%4 == 0 {
				rng.Read(cur[c*testChunk : (c+1)*testChunk])
			}
		}
		images[i] = append([]byte(nil), cur...)
	}
	return images
}

// buildLineage checkpoints images with the given method and persists
// the lineage into a fresh store directory.
func buildLineage(t *testing.T, method checkpoint.Method, images [][]byte) string {
	t.Helper()
	pool := parallel.NewPool(2)
	defer pool.Close()
	dev := device.New(device.A100(), pool, nil)
	d, err := dedup.New(method, testLen, dev, dedup.Options{ChunkSize: testChunk})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, img := range images {
		if _, _, err := d.Checkpoint(img); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteRecord(d.Record()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// restoreAll reopens dir and byte-compares every restorable checkpoint
// against images (indexed absolutely).
func restoreAll(t *testing.T, dir string, images [][]byte) {
	t.Helper()
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	length := store.Len()
	if length != len(images) {
		t.Fatalf("store len %d, want %d", length, len(images))
	}
	rec, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	for k := store.Base(); k < length; k++ {
		state, err := rec.Restore(k)
		if err != nil {
			t.Fatalf("restore %d: %v", k, err)
		}
		if !bytes.Equal(state, images[k]) {
			t.Fatalf("checkpoint %d not byte-identical after compaction", k)
		}
	}
}

// compact folds store to where policy puts its baseline.
func compact(store *checkpoint.FileStore, policy Policy, pool *parallel.Pool) (Stats, error) {
	return Fold(store, policy.Baseline(store.Base(), store.Len()), pool)
}

// TestCompactKeepLastNProperty is the subsystem's acceptance property:
// a 64-checkpoint lineage compacted under keep-last=8 keeps every
// retained index restoring byte-identically, shrinks the on-disk
// footprint, and compacts idempotently — for every diff method.
func TestCompactKeepLastNProperty(t *testing.T) {
	images := buildImages(64)
	methods := []struct {
		name    string
		method  checkpoint.Method
		rewrite bool // diffs reference earlier checkpoints => rewrites expected
	}{
		{"Basic", checkpoint.MethodBasic, false},
		{"List", checkpoint.MethodList, true},
		{"Tree", checkpoint.MethodTree, true},
	}
	for _, tc := range methods {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildLineage(t, tc.method, images)
			store, err := checkpoint.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			before := store.TotalBytes()
			pool := parallel.NewPool(2)
			defer pool.Close()
			st, err := compact(store, KeepLastN(8), pool)
			if err != nil {
				t.Fatal(err)
			}
			if st.OldBase != 0 || st.NewBase != 56 {
				t.Fatalf("baseline moved %d -> %d, want 0 -> 56", st.OldBase, st.NewBase)
			}
			if st.Pruned != 56 {
				t.Fatalf("pruned %d diffs, want 56", st.Pruned)
			}
			if tc.rewrite && st.Rewritten == 0 {
				t.Fatal("no suffix diffs rewritten despite references to pruned history")
			}
			if !tc.rewrite && st.Rewritten != 0 {
				t.Fatalf("%d Basic diffs rewritten; Basic diffs are self-contained", st.Rewritten)
			}
			after := store.TotalBytes()
			if after >= before {
				t.Fatalf("disk grew: %d -> %d bytes", before, after)
			}
			if st.FreedBytes != before-after {
				t.Fatalf("FreedBytes %d, want %d", st.FreedBytes, before-after)
			}
			// Every retained checkpoint restores byte-identically, both
			// through the live store and a fresh reopen.
			restoreAll(t, dir, images)
			// Idempotent: a second compaction is a no-op.
			st2, err := compact(store, KeepLastN(8), pool)
			if err != nil {
				t.Fatal(err)
			}
			if st2.NewBase != st2.OldBase || st2.Pruned != 0 {
				t.Fatalf("second compaction not a no-op: %+v", st2)
			}
			// The lineage keeps growing after compaction: appends resume
			// at the absolute length.
			d, err := RewriteBasic(images[63], images[0], testChunk, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Append(d); err != nil {
				t.Fatalf("append after compaction: %v", err)
			}
		})
	}
}

// TestCompactCrashAfterCommit simulates dying right after the manifest
// rename that commits the span install, before the old segment is
// deleted: the reopened store serves the folded lineage, every
// retained checkpoint byte-exact, and the next write removes the old
// segment.
func TestCompactCrashAfterCommit(t *testing.T) {
	images := buildImages(32)
	dir := buildLineage(t, checkpoint.MethodTree, images)
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetHooks(crashAt(recframe.SeamAfterRename))
	if _, err := compact(store, KeepLastN(8), nil); !errors.Is(err, checkpoint.ErrSimulatedCrash) {
		t.Fatalf("compact: %v, want injected crash", err)
	}
	store.Close()

	reopened, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Base() != 24 {
		t.Fatalf("baseline %d after the committed crash, want 24", reopened.Base())
	}
	restoreAll(t, dir, images)
	if _, err := Fold(reopened, 25, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("directory after the first write past the crash: %v %v (want manifest + one segment)", entries, err)
	}
}

// TestCompactCrashBeforeCommit simulates dying after the folded span
// was written to its new segment but before the manifest rename: the
// old manifest still governs, so EVERY original checkpoint — including
// the ones that were about to be folded — must still restore
// byte-identically on reopen, and a fold of the reopened store runs the
// compaction to completion.
func TestCompactCrashBeforeCommit(t *testing.T) {
	images := buildImages(32)
	dir := buildLineage(t, checkpoint.MethodTree, images)
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetHooks(crashAt(recframe.SeamBeforeRename))
	if _, err := compact(store, KeepLastN(8), nil); !errors.Is(err, checkpoint.ErrSimulatedCrash) {
		t.Fatalf("compact: %v, want injected crash", err)
	}
	if store.Base() != 0 {
		t.Fatalf("baseline moved to %d without a manifest commit", store.Base())
	}
	store.Close()
	restoreAll(t, dir, images)
	store2, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	st, err := compact(store2, KeepLastN(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewBase != 24 {
		t.Fatalf("resumed compaction reached %d, want 24", st.NewBase)
	}
	restoreAll(t, dir, images)
}

func TestPolicies(t *testing.T) {
	cases := []struct {
		p            Policy
		base, length int
		want         int
	}{
		{KeepAll(), 0, 100, 0},
		{KeepAll(), 7, 100, 7},
		{KeepLastN(8), 0, 64, 56},
		{KeepLastN(8), 60, 64, 60}, // never backwards
		{KeepLastN(100), 0, 64, 0},
		{KeepEvery(16), 0, 64, 48},
		{KeepEvery(16), 0, 65, 64},
		{KeepEvery(16), 0, 16, 0},
		{KeepEvery(1), 0, 10, 9},
	}
	for _, tc := range cases {
		if got := tc.p.Baseline(tc.base, tc.length); got != tc.want {
			t.Errorf("%s.Baseline(%d,%d) = %d, want %d", tc.p.Name(), tc.base, tc.length, got, tc.want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"keep-all", "keep-last=8", "keep-every=16"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	for _, bad := range []string{"", "keep", "keep-last=", "keep-last=0", "keep-last=-3", "keep-every=x", "lru"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

// TestFoldRange: a target at or below the baseline is a no-op, one at
// or past Len is refused, and anything between folds.
func TestFoldRange(t *testing.T) {
	images := buildImages(16)
	dir := buildLineage(t, checkpoint.MethodList, images)
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// keep-all never moves the baseline on its own.
	st, err := compact(store, KeepAll(), nil)
	if err != nil || st.NewBase != 0 {
		t.Fatalf("keep-all compacted to %d (%v)", st.NewBase, err)
	}
	if _, err := Fold(store, 16, nil); err == nil {
		t.Fatal("target beyond range accepted")
	}
	st, err = Fold(store, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewBase != 12 || st.Pruned != 12 {
		t.Fatalf("fold: %+v", st)
	}
	size := store.TotalBytes()
	st, err = Fold(store, 5, nil)
	if err != nil || st != (Stats{OldBase: 12, NewBase: 12}) || store.TotalBytes() != size {
		t.Fatalf("backwards target: %+v (%v), want a no-op", st, err)
	}
	restoreAll(t, dir, images)
}

func TestRewriteBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prev := make([]byte, 300) // deliberately not chunk-aligned
	rng.Read(prev)
	cur := append([]byte(nil), prev...)
	copy(cur[64:128], bytes.Repeat([]byte{0xAB}, 64))
	copy(cur[288:], []byte{1, 2, 3}) // tail chunk partial change

	d, err := RewriteBasic(prev, cur, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := checkpoint.NewRecord()
	full := &checkpoint.Diff{Method: checkpoint.MethodFull, CkptID: 0, DataLen: 300,
		ChunkSize: 64, Data: append([]byte(nil), prev...)}
	if err := rec.Append(full); err != nil {
		t.Fatal(err)
	}
	if err := rec.Append(d); err != nil {
		t.Fatal(err)
	}
	got, err := rec.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("RewriteBasic does not reproduce the target state")
	}
	if _, err := RewriteBasic(prev, cur[:10], 64, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RewriteBasic(prev, cur, 0, 1); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}

// TestFoldFills folds a Tree chain whose diffs hold fills — shifted
// regions that repeat a shorter source. Fills sourced at the new
// baseline survive it unchanged, since a full image resolves any
// source node; one sourced below it is rewritten; every retained
// checkpoint restores byte-exact.
func TestFoldFills(t *testing.T) {
	const chunks = testLen / testChunk
	rng := rand.New(rand.NewSource(11))
	run := func(buf, pat []byte, lo, hi int) {
		for c := lo; c < hi; c++ {
			copy(buf[c*testChunk:], pat)
		}
	}
	pat := make([]byte, testChunk)
	rng.Read(pat)
	cur := make([]byte, testLen)
	rng.Read(cur[:chunks/2*testChunk]) // chunks 32..63 are a zero run
	var images [][]byte
	for k := 0; k < 8; k++ {
		switch k {
		case 1, 2, 5: // fresh bytes only
			rng.Read(cur[(k-1)*4*testChunk : k*4*testChunk])
		case 3: // a new chunk and, in the same diff, a run of it
			copy(cur[33*testChunk:], pat)
			run(cur, pat, 48, 56)
		case 4: // a run of the chunk first stored at 3
			run(cur, pat, 16, 24)
		case 6: // a zero run, sourced at 0
			clear(cur[8*testChunk : 16*testChunk])
		case 7: // another run sourced at 3
			run(cur, pat, 56, 64)
		}
		images = append(images, append([]byte(nil), cur...))
	}
	dir := buildLineage(t, checkpoint.MethodTree, images)
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	st, err := Fold(store, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewBase != 3 || st.Rewritten != 1 {
		t.Fatalf("fold: %+v, want baseline 3 and diff 6 alone rewritten", st)
	}
	rec, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	geom := merkle.NewGeometry(chunks)
	span := func(v uint32) int {
		off, end := geom.NodeSpan(int(v), testChunk, testLen)
		return end - off
	}
	for _, k := range []int{4, 7} {
		shifts, fills := rec.Diff(k).ShiftDupl, 0
		for j := range shifts.Len() {
			if s := shifts.At(j); s.SrcCkpt == 3 && span(s.SrcNode) < span(s.Node) {
				fills++
			}
		}
		if fills == 0 {
			t.Errorf("retained diff %d holds no fill sourced at the baseline", k)
		}
	}
	restoreAll(t, dir, images)
}
