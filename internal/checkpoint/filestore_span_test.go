package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInstallSpanAdoptsForwardBase covers the replication resync
// case: a lagging mirror (here holding diffs
// [0,2)) installs a post-fold span [5,8) whose baseline lies beyond
// its current length, and the store's committed state becomes exactly
// that span — including after a reopen.
func TestInstallSpanAdoptsForwardBase(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ck := 0; ck < 2; ck++ {
		if err := fs.Append(storeDiff(ck, byte(ck+1))); err != nil {
			t.Fatal(err)
		}
	}
	span := []*Diff{storeDiff(5, 50), storeDiff(6, 60), storeDiff(7, 70)}
	if err := fs.InstallSpan(5, span); err != nil {
		t.Fatal(err)
	}
	check := func(fs *FileStore, label string) {
		t.Helper()
		if got := fs.Base(); got != 5 {
			t.Fatalf("%s: base = %d, want 5", label, got)
		}
		n, err := fs.Len()
		if err != nil || n != 8 {
			t.Fatalf("%s: len = %d (%v), want 8", label, n, err)
		}
		rec, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		for i, tag := range []byte{50, 60, 70} {
			got, err := rec.Restore(i)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != tag {
				t.Fatalf("%s: restore %d = tag %d, want %d", label, i, got[0], tag)
			}
		}
	}
	check(fs, "installed")
	// The pre-span diffs must be gone with their segment, not stranded.
	if _, err := os.Stat(filepath.Join(dir, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("old segment after install: %v", err)
	}
	// Appending continues from the span's end.
	if err := fs.Append(storeDiff(8, 80)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if n, _ := fs2.Len(); n != 9 {
		t.Fatalf("reopened len = %d, want 9", n)
	}
	if fs2.Base() != 5 {
		t.Fatalf("reopened base = %d, want 5", fs2.Base())
	}
}

// TestInstallSpanOverwritesDivergedSuffix: a same-base install
// replaces the stored bytes — the resync path for a mirror whose
// suffix diverged from the primary after a fold rewrite.
func TestInstallSpanOverwritesDivergedSuffix(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for ck := 0; ck < 3; ck++ {
		if err := fs.Append(storeDiff(ck, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.InstallSpan(0, []*Diff{storeDiff(0, 9), storeDiff(1, 8), storeDiff(2, 7)}); err != nil {
		t.Fatal(err)
	}
	if fs.Base() != 0 {
		t.Fatalf("base moved to %d on same-base install", fs.Base())
	}
	rec, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range []byte{9, 8, 7} {
		got, err := rec.Restore(i)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tag {
			t.Fatalf("restore %d = tag %d, want %d", i, got[0], tag)
		}
	}
}

func TestInstallSpanValidation(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.InstallSpan(3, nil); err == nil || !strings.Contains(err.Error(), "no diffs") {
		t.Fatalf("empty span: %v", err)
	}
	// Non-contiguous ids.
	if err := fs.InstallSpan(3, []*Diff{storeDiff(3, 1), storeDiff(5, 2)}); err == nil {
		t.Fatal("gap in span accepted")
	}
	// First id not at base.
	if err := fs.InstallSpan(3, []*Diff{storeDiff(4, 1)}); err == nil {
		t.Fatal("span starting past base accepted")
	}
	// Shift reference below the span baseline.
	d := storeDiff(4, 1)
	d.Method = MethodList
	d.ShiftDupl = []ShiftRegion{{SrcCkpt: 2}}
	if err := fs.InstallSpan(4, []*Diff{d}); err == nil {
		t.Fatal("span with sub-baseline shift reference accepted")
	}
	// Baseline behind an already committed one.
	if err := fs.InstallSpan(5, []*Diff{storeDiff(5, 1), storeDiff(6, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := fs.InstallSpan(4, []*Diff{storeDiff(4, 1), storeDiff(5, 2)}); err == nil {
		t.Fatal("backwards baseline accepted")
	}
}
