package recframe

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// The durability protocol: how bytes reach the disk so that a crash at
// any instant leaves either the state before a mutation or the state
// after it. Log.Write, Log.Sync, Log.Append, Resume and Create write a
// log; Commit replaces
// a small file (a manifest, an index snapshot); Hooks is the one fault
// seam they, and the stores' reads, run through.

// ErrSimulatedCrash is what a Hooks seam returns (wrapped) to kill the
// process there: whoever sees it leaves the debris a dying process
// would — a half-written frame stays, a staged file stays, nothing is
// rolled back or released — and refuses every later write until the
// directory is reopened. Any other error from a seam is an I/O failure
// to roll back from. Only fault-injection seams return it.
var ErrSimulatedCrash = errors.New("recframe: simulated crash")

// Seam points the protocol itself passes through. The block store adds
// "gc-before", "gc-after" and "unlink" around its GC commit; the write
// seam is not a point but a wrapper (Hooks.WrapWrite), which tests
// number as "write".
const (
	SeamSync         = "sync"          // before a log, a staged file or a directory is fsynced
	SeamBeforeRename = "before-rename" // a staged file is durable, the rename has not happened
	SeamAfterRename  = "after-rename"  // renamed, the directory not yet fsynced
	SeamRead         = "read"          // before records are read; an error fails that read only
)

// TmpSuffix is appended to a path to name where Commit stages its
// replacement.
const TmpSuffix = ".tmp"

// Hooks intercepts the I/O of a log and of the stores built on it at
// their failure points; tests count I/O through it and inject failures
// and crashes (see ErrSimulatedCrash). A nil *Hooks, the production
// value, and every nil field are no-ops.
type Hooks struct {
	// WrapWrite wraps the writer one frame — or the records of a whole
	// new log file — goes through on its way to the file at path; the
	// returned writer can count, truncate, fail or tear the stream.
	WrapWrite func(path string, w io.Writer) io.Writer
	// Seam runs at every other failure point, with the path about to be
	// acted on.
	Seam func(point, path string) error
	// OnRead may transform (rot) the bytes a read of path delivered
	// before verification sees them.
	OnRead func(path string, raw []byte) []byte
}

// At runs the Seam hook, if any, at point.
func (h *Hooks) At(point, path string) error {
	if h == nil || h.Seam == nil {
		return nil
	}
	return h.Seam(point, path)
}

// Sync makes f durable, through the sync seam.
func (h *Hooks) Sync(f *os.File) error {
	if err := h.At(SeamSync, f.Name()); err != nil {
		return err
	}
	return f.Sync()
}

// SyncDir fsyncs a directory through the sync seam, so that a file just
// created or renamed in it survives power loss (a rename alone only
// orders against other renames, not against the disk). Filesystems that
// refuse directory fsync (some network mounts) report EINVAL or
// ENOTSUP, which is treated as success; the raw errno values must be
// matched — a *PathError wrapping syscall.EINVAL never matches
// os.ErrInvalid.
func (h *Hooks) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := h.At(SeamSync, dir); err != nil {
		return err
	}
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// ReadAt reads len(p) bytes of f at off through the read side of the
// seam — the read point may fail or count the read, OnRead may rot what
// it delivered — and returns the bytes to verify: what was read of p,
// or what OnRead made of it.
func (h *Hooks) ReadAt(f *os.File, p []byte, off int64) ([]byte, error) {
	if err := h.At(SeamRead, f.Name()); err != nil {
		return p[:0], err
	}
	n, err := f.ReadAt(p, off)
	if h != nil && h.OnRead != nil && n > 0 {
		return h.OnRead(f.Name(), p[:n]), err
	}
	return p[:n], err
}

// Log is an append-only log file, its committed length — the offset
// up to which every frame is known durable — and its written length,
// where the next frame goes. Frames between the two are written but not
// yet durable: Write adds one, Sync makes them all durable with one
// fsync, and Append is the two in one call. It is not safe for
// concurrent use; the store that owns it serializes writes, reads the
// file through File, and closes it.
type Log struct {
	f      *os.File
	size   int64 // committed length
	end    int64 // written length
	n      int64 // bytes written of the frame in flight
	failed error
}

// Create creates the log file at path, empty, and makes its directory
// entry durable, so that the file survives power loss before a commit
// record (a manifest, an index snapshot) may name it. On a failure that
// is not a simulated crash nothing of it stays.
func Create(h *Hooks, path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("recframe: creating log: %w", err)
	}
	if err := h.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		if !errors.Is(err, ErrSimulatedCrash) {
			os.Remove(path)
		}
		return nil, fmt.Errorf("recframe: creating %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Attach wraps f, an open log of which a scan found the first committed
// bytes to be the committed frames, for reading: it writes nothing, and
// whatever lies past committed stays until Resume takes the file over
// for writing.
func Attach(f *os.File, committed int64) *Log {
	return &Log{f: f, size: committed, end: committed}
}

// Resume takes over f, an open log of which a scan found the first
// committed bytes to be the committed frames. Never append after
// garbage: whatever lies past them — a frame whose append died — is cut
// off before the first append can land behind it.
func Resume(f *os.File, committed int64) (*Log, error) {
	if err := f.Truncate(committed); err != nil {
		return nil, fmt.Errorf("recframe: resuming %s: %w", f.Name(), err)
	}
	return Attach(f, committed), nil
}

// File returns the log's file, for reads and for closing.
func (l *Log) File() *os.File { return l.f }

// Size returns the committed length.
func (l *Log) Size() int64 { return l.size }

// End returns the written length: Size plus the frames written since
// the last Sync.
func (l *Log) End() int64 { return l.end }

// Failed returns the error the log fail-stopped with, nil while it
// takes appends.
func (l *Log) Failed() error { return l.failed }

// frameWriter writes the frame in flight at the log's written length.
type frameWriter Log

func (w *frameWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.end+w.n)
	w.n += int64(n)
	return n, err
}

// Write adds a frame behind those written before it: emit writes it,
// through the write seam, at the written length, which moves past it
// once emit returns nil. The frame is not durable until a Sync. On
// failure nothing of the frame stays — the file is cut back to the
// written length — unless the cut fails too, or the failure is a
// simulated crash (which must leave the debris a dying process would):
// then the log fail-stops, and this and every later call returns an
// error Failed also reports.
func (l *Log) Write(h *Hooks, emit func(w io.Writer) error) error {
	if l.failed != nil {
		return l.failed
	}
	l.n = 0
	var w io.Writer = (*frameWriter)(l)
	if h != nil && h.WrapWrite != nil {
		w = h.WrapWrite(l.f.Name(), w)
	}
	err := emit(w)
	if err == nil {
		l.end += l.n
		return nil
	}
	return l.cut(l.end, fmt.Errorf("recframe: appending to %s: %w", l.f.Name(), err))
}

// Sync makes every written frame durable: one fsync, through the sync
// seam, then the committed length moves to the written one. It fsyncs
// even when no frame is pending, so a cut the log made becomes durable
// too. On failure nothing moves: which pending bytes reached the disk
// is unknown, and the caller decides — cut them (Append) or stop. A
// simulated crash fail-stops the log.
func (l *Log) Sync(h *Hooks) error {
	if l.failed != nil {
		return l.failed
	}
	if err := h.Sync(l.f); err != nil {
		err = fmt.Errorf("recframe: syncing %s: %w", l.f.Name(), err)
		if errors.Is(err, ErrSimulatedCrash) {
			l.failed = err
		}
		return err
	}
	l.size = l.end
	return nil
}

// Append is the one way a frame reaches a log with nothing pending
// before it: Write, then Sync; only then may the caller apply the frame
// to its in-memory state. On failure nothing of the frame stays — a
// failed fsync cuts the file back to the committed length, so memory ==
// disk — unless the cut fails or the failure is a simulated crash, when
// the log fail-stops as Write does.
func (l *Log) Append(h *Hooks, emit func(w io.Writer) error) error {
	if err := l.Write(h, emit); err != nil {
		return err
	}
	if err := l.Sync(h); err != nil && l.failed == nil {
		return l.cut(l.size, err)
	}
	return l.failed
}

// cut ends a failed write or sync: it passes err through after cutting
// the file back to at, the length before the failed frames, and
// fail-stops the log instead on a simulated crash or a failed cut.
func (l *Log) cut(at int64, err error) error {
	if errors.Is(err, ErrSimulatedCrash) {
		l.failed = err
		return err
	}
	if terr := l.f.Truncate(at); terr != nil {
		l.failed = fmt.Errorf("recframe: rolling back a failed append: %v (%w)", terr, err)
		return l.failed
	}
	l.end = at
	return err
}

// Commit atomically replaces the file at path with content: staged at
// path+TmpSuffix, fsynced, renamed over path, and the directory fsynced
// so the rename itself survives power loss. The rename is the commit
// point. An error with renamed false leaves the old file in force (a
// simulated crash leaves the staged file behind, anything else removes
// it); an error with renamed true leaves the commit standing but its
// durability unknown — the caller can no longer know that its memory
// matches what a crash would leave, and fail-stops.
func Commit(h *Hooks, path string, content []byte) (renamed bool, err error) {
	tmp := path + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, fmt.Errorf("recframe: staging %s: %w", path, err)
	}
	if _, err = f.Write(content); err == nil {
		err = h.Sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = h.At(SeamBeforeRename, path)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		if !errors.Is(err, ErrSimulatedCrash) {
			os.Remove(tmp)
		}
		return false, fmt.Errorf("recframe: staging %s: %w", path, err)
	}
	if err = h.At(SeamAfterRename, path); err == nil {
		err = h.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		err = fmt.Errorf("recframe: %s renamed, durability unknown: %w", path, err)
	}
	return true, err
}
