package recframe

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// seamLog records every seam point the hooks pass and fails the chosen
// one: with err at its n-th occurrence ("write" is the write wrapper,
// which lets half of the frame through first).
type seamLog struct {
	points []string
	failAt string
	nth    int
	err    error
	hits   int
}

func (s *seamLog) hit(point string) bool {
	if point != s.failAt {
		return false
	}
	s.hits++
	return s.hits == s.nth
}

func (s *seamLog) hooks() *Hooks {
	return &Hooks{
		WrapWrite: func(_ string, w io.Writer) io.Writer {
			s.points = append(s.points, "write")
			if !s.hit("write") {
				return w
			}
			return writerFunc(func(p []byte) (int, error) {
				n, _ := w.Write(p[:len(p)/2])
				return n, s.err
			})
		},
		Seam: func(point, path string) error {
			s.points = append(s.points, point+" "+filepath.Base(path))
			if s.hit(point) {
				return s.err
			}
			return nil
		},
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func emit(frame []byte) func(io.Writer) error {
	return func(w io.Writer) error { _, err := w.Write(frame); return err }
}

func mustCreate(t *testing.T, h *Hooks) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.log")
	l, err := Create(h, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.File().Close() })
	return l, path
}

func fileIs(t *testing.T, path string, want []byte) {
	t.Helper()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s holds %d bytes (%v), want %d", path, len(got), err, len(want))
	}
}

// TestAppendLadder walks the append ladder: a frame lands at the
// committed length with one write and one fsync; a failed write or
// fsync cuts the file back and the log keeps working (memory == disk);
// a simulated crash at either seam leaves the torn bytes and fail-stops
// the log; so does a cut that fails.
func TestAppendLadder(t *testing.T) {
	first, second := record(false, 0, 1, []byte("first frame")), record(false, 1, 2, []byte("second frame"))
	boom := errors.New("injected")

	var s seamLog
	l, path := mustCreate(t, s.hooks())
	if err := l.Append(s.hooks(), emit(first)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Base(filepath.Dir(path))
	if want := []string{"sync " + dir, "write", "sync test.log"}; !reflect.DeepEqual(s.points, want) {
		t.Fatalf("create + append passed %v, want %v", s.points, want)
	}
	if l.Size() != int64(len(first)) {
		t.Fatalf("committed length %d after the first frame, want %d", l.Size(), len(first))
	}

	for _, seam := range []string{"write", "sync"} {
		s = seamLog{failAt: seam, nth: 1, err: boom}
		if err := l.Append(s.hooks(), emit(second)); !errors.Is(err, boom) {
			t.Fatalf("failed %s: Append returned %v", seam, err)
		}
		if l.Failed() != nil || l.Size() != int64(len(first)) {
			t.Fatalf("failed %s: log failed=%v size=%d, want a clean roll-back to %d", seam, l.Failed(), l.Size(), len(first))
		}
		fileIs(t, path, first)
	}
	if err := l.Append(nil, emit(second)); err != nil {
		t.Fatalf("append after two rolled-back failures: %v", err)
	}
	fileIs(t, path, append(append([]byte(nil), first...), second...))

	for _, seam := range []string{"write", "sync"} {
		s = seamLog{failAt: seam, nth: 1, err: ErrSimulatedCrash}
		l, path := mustCreate(t, nil)
		if err := l.Append(nil, emit(first)); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(s.hooks(), emit(second)); !errors.Is(err, ErrSimulatedCrash) {
			t.Fatalf("crash at %s: Append returned %v", seam, err)
		}
		if st, _ := os.Stat(path); st.Size() <= int64(len(first)) {
			t.Fatalf("crash at %s: the file is %d bytes, want the dying append's debris past %d", seam, st.Size(), len(first))
		}
		if err := l.Append(nil, emit(second)); !errors.Is(err, ErrSimulatedCrash) || l.Failed() == nil || l.Size() != int64(len(first)) {
			t.Fatalf("crash at %s: the log kept appending: %v (failed=%v, size %d)", seam, err, l.Failed(), l.Size())
		}
	}

	// A cut that fails: the file is closed under the log, so the fsync
	// fails and so does the truncate that would roll the frame back.
	l, path = mustCreate(t, nil)
	err := l.Append(nil, func(w io.Writer) error {
		w.Write(first)
		return l.File().Close()
	})
	if err == nil || l.Failed() == nil || errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("failed cut: Append returned %v, log failed=%v", err, l.Failed())
	}
	if err := l.Append(nil, emit(second)); err != l.Failed() {
		t.Fatalf("append after a failed cut: %v, want the sticky %v", err, l.Failed())
	}
	fileIs(t, path, first) // what disk holds is unknown to the log: it stopped
}

// TestResumeCutsTheTornTail: never append after garbage.
func TestResumeCutsTheTornTail(t *testing.T) {
	first, second := record(false, 0, 1, []byte("committed")), record(false, 1, 2, []byte("after the cut"))
	path := filepath.Join(t.TempDir(), "test.log")
	if err := os.WriteFile(path, append(append([]byte(nil), first...), "torn fra"...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := Resume(f, int64(len(first)))
	if err != nil {
		t.Fatal(err)
	}
	fileIs(t, path, first)
	if err := l.Append(nil, emit(second)); err != nil {
		t.Fatal(err)
	}
	recs, committed, err := testFormat.Scan(f, l.Size(), false)
	if err != nil || len(recs) != 2 || committed != l.Size() {
		t.Fatalf("scan after resume + append: %d records, committed %d of %d, %v", len(recs), committed, l.Size(), err)
	}
}

// TestCreateLeavesNoTrace: a log whose directory entry could not be made
// durable does not exist — unless the process died there.
func TestCreateLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		err  error
		left bool
	}{{errors.New("injected"), false}, {ErrSimulatedCrash, true}} {
		s := seamLog{failAt: "sync", nth: 1, err: tc.err}
		path := filepath.Join(t.TempDir(), "test.log")
		if _, err := Create(s.hooks(), path); !errors.Is(err, tc.err) {
			t.Fatalf("Create returned %v, want %v", err, tc.err)
		}
		if _, err := os.Stat(path); (err == nil) != tc.left {
			t.Fatalf("after %v the file exists: %v, want %v", tc.err, err == nil, tc.left)
		}
	}
}

// TestCommit walks the rename commit: stage → fsync → before-rename →
// rename → after-rename → directory fsync. A failure before the rename
// leaves the old content and no staged file, a crash there leaves the
// staged file; after the rename the new content stands and the caller is
// told so.
func TestCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "commit.me")
	oldC, newC := []byte("old content"), []byte("new content")
	var s seamLog
	if renamed, err := Commit(s.hooks(), path, oldC); err != nil || !renamed {
		t.Fatal(renamed, err)
	}
	want := []string{"sync commit.me.tmp", "before-rename commit.me", "after-rename commit.me", "sync " + filepath.Base(dir)}
	if !reflect.DeepEqual(s.points, want) {
		t.Fatalf("Commit passed %v, want %v", s.points, want)
	}
	fileIs(t, path, oldC)

	boom := errors.New("injected")
	for _, tc := range []struct {
		seam    string
		nth     int
		err     error
		renamed bool
		staged  bool
	}{
		{"sync", 1, boom, false, false},
		{"before-rename", 1, boom, false, false},
		{"sync", 1, ErrSimulatedCrash, false, true},
		{"before-rename", 1, ErrSimulatedCrash, false, true},
		{"after-rename", 1, boom, true, false},
		{"sync", 2, boom, true, false}, // the directory fsync
		{"after-rename", 1, ErrSimulatedCrash, true, false},
	} {
		os.Remove(path + TmpSuffix)
		if err := os.WriteFile(path, oldC, 0o644); err != nil {
			t.Fatal(err)
		}
		s = seamLog{failAt: tc.seam, nth: tc.nth, err: tc.err}
		renamed, err := Commit(s.hooks(), path, newC)
		if !errors.Is(err, tc.err) || renamed != tc.renamed {
			t.Fatalf("%s #%d (%v): Commit returned renamed=%v, %v", tc.seam, tc.nth, tc.err, renamed, err)
		}
		if tc.renamed {
			fileIs(t, path, newC)
		} else {
			fileIs(t, path, oldC)
		}
		if _, err := os.Stat(path + TmpSuffix); (err == nil) != tc.staged {
			t.Fatalf("%s #%d (%v): staged file exists: %v, want %v", tc.seam, tc.nth, tc.err, err == nil, tc.staged)
		}
	}
}

// TestHooksReadAt: the read point can fail a read, OnRead can rot what it
// delivered, and a nil *Hooks is a plain ReadAt.
func TestHooksReadAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "read.me")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var nilHooks *Hooks
	if got, err := nilHooks.ReadAt(f, make([]byte, 4), 3); err != nil || string(got) != "3456" {
		t.Fatalf("plain read: %q, %v", got, err)
	}
	if got, err := nilHooks.ReadAt(f, make([]byte, 8), 6); err != io.EOF || string(got) != "6789" {
		t.Fatalf("short read: %q, %v; want what the file held and io.EOF", got, err)
	}
	boom := errors.New("injected")
	reads := 0
	h := &Hooks{
		Seam: func(point, _ string) error {
			if reads++; point == SeamRead && reads == 2 {
				return boom
			}
			return nil
		},
		OnRead: func(_ string, raw []byte) []byte { return bytes.ToUpper(raw) },
	}
	if err := os.WriteFile(path, []byte("abcdefghij"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := h.ReadAt(f, make([]byte, 4), 3); err != nil || string(got) != "DEFG" {
		t.Fatalf("rotted read: %q, %v", got, err)
	}
	if got, err := h.ReadAt(f, make([]byte, 4), 3); !errors.Is(err, boom) || len(got) != 0 {
		t.Fatalf("failed read: %q, %v", got, err)
	}
}
