package faults

import (
	"io"
	"os"
	"syscall"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/recframe"
)

// Storage seam event names, as they appear in Trace.
const (
	EvTornWrite   = "storage.torn-write"
	EvWriteErr    = "storage.write-err"
	EvSyncErr     = "storage.sync-err"
	EvCrashBefore = "storage.crash-before-rename"
	EvCrashAfter  = "storage.crash-after-rename"
	EvBitRot      = "storage.bit-rot"
	// EvSeamErr is the prefix of a SeamErr event: "storage.seam-err:"
	// followed by the seam point.
	EvSeamErr = "storage.seam-err:"
)

// StoragePlan schedules faults at the storage seam (recframe.Hooks)
// under a FileStore, a block store, or both. Each field is a Hits
// predicate over that event's occurrence ordinal; nil never fires.
type StoragePlan struct {
	// TornWrite truncates the selected frame write — a frame appended
	// to a segment or a pack, or a whole new segment — after TornAfter
	// bytes and then fails it: a torn write, as when the disk fills
	// mid-frame. The store rolls the log back; nothing of the frame
	// commits.
	TornWrite Hits
	// TornAfter is how many bytes a torn write lets through
	// (default 64).
	TornAfter int
	// WriteErr fails the selected record write immediately with an
	// injected ENOSPC.
	WriteErr Hits
	// SyncErr fails the selected file fsync — of a segment, a pack, a
	// staged manifest or snapshot — with an injected EIO. Directory
	// fsyncs pass through the same seam point and are not counted.
	SyncErr Hits
	// SeamErr fails the named seam point — any point of the
	// recframe.Hooks.Seam vocabulary, the block store's "gc-before",
	// "gc-after" and "unlink" included — at the selected occurrences
	// with a bare ErrInjected: an I/O failure there, not a crash.
	SeamErr map[string]Hits
	// CrashBeforeRename simulates the process dying after a staged
	// manifest is durable but before the rename that commits it
	// (InstallSpan): the store propagates checkpoint.ErrSimulatedCrash
	// without cleanup, leaving the staged manifest and the unnamed new
	// segment for the next open to ignore and the next write to remove.
	CrashBeforeRename Hits
	// CrashAfterRename simulates the process dying right after that
	// rename, before the directory fsync.
	CrashAfterRename Hits
	// BitRot flips one deterministically-chosen bit of the selected
	// record read — header or payload — modeling storage-medium rot;
	// the record checksums must detect it.
	BitRot Hits
}

// ErrNoSpace is the injected disk-full error. It matches both
// ErrInjected and syscall.ENOSPC via errors.Is.
var ErrNoSpace = inject("disk full", syscall.ENOSPC)

// ErrIO is the injected generic I/O error (fsync failures). It matches
// both ErrInjected and syscall.EIO via errors.Is.
var ErrIO = inject("i/o error", syscall.EIO)

// StorageHooks builds the recframe.Hooks implementing plan, sharing the
// injector's seed and trace. Install with FileStore.SetHooks, with
// blockstore.Store.SetHooks, or — one value, one ordinal count per
// event — with both.
func (in *Injector) StorageHooks(plan StoragePlan) *recframe.Hooks {
	tornAfter := plan.TornAfter
	if tornAfter <= 0 {
		tornAfter = 64
	}
	return &recframe.Hooks{
		WrapWrite: func(_ string, w io.Writer) io.Writer {
			if in.fire(EvWriteErr, plan.WriteErr) {
				return errWriter{err: ErrNoSpace}
			}
			if in.fire(EvTornWrite, plan.TornWrite) {
				return &tornWriter{w: w, left: tornAfter}
			}
			return w
		},
		Seam: func(point, path string) error {
			switch h, planned := plan.SeamErr[point]; {
			case planned && in.fire(EvSeamErr+point, h):
				return inject("failure at "+point, nil)
			case point == recframe.SeamSync && !isDir(path) && in.fire(EvSyncErr, plan.SyncErr):
				return ErrIO
			case point == recframe.SeamBeforeRename && in.fire(EvCrashBefore, plan.CrashBeforeRename):
				return inject("crash before rename", recframe.ErrSimulatedCrash)
			case point == recframe.SeamAfterRename && in.fire(EvCrashAfter, plan.CrashAfterRename):
				return inject("crash after rename", recframe.ErrSimulatedCrash)
			}
			return nil
		},
		OnRead: func(_ string, raw []byte) []byte {
			if !in.fire(EvBitRot, plan.BitRot) {
				return raw
			}
			return in.FlipBit(raw)
		},
	}
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// FlipBit returns a copy of raw with one bit flipped at a position
// drawn from the injector's seeded PRNG.
func (in *Injector) FlipBit(raw []byte) []byte {
	if len(raw) == 0 {
		return raw
	}
	pos := in.intn(len(raw) * 8)
	out := append([]byte(nil), raw...)
	out[pos/8] ^= 1 << (pos % 8)
	return out
}

// RotStoredDiff flips one bit (see FlipBit) of the on-disk record —
// header and payload — of stored checkpoint ck in the lineage
// directory dir, in place, and returns the rotten image and where it
// sits. It finds the record through a throwaway FileStore, whose open
// only reads, so it is safe beside a live owner of the directory. This
// is the one seam through which tests and drills damage a specific
// stored diff.
func (in *Injector) RotStoredDiff(dir string, ck int) (rotten []byte, path string, off int64, err error) {
	fs, err := checkpoint.NewFileStoreWith(dir, nil)
	if err != nil {
		return nil, "", 0, err
	}
	path, off, n, err := fs.Locate(ck)
	fs.Close()
	if err != nil {
		return nil, "", 0, err
	}
	rotten, err = in.rotExtent(path, off, n)
	return rotten, path, off, err
}

// RotStoredBlock is RotStoredDiff for the shared block store in dir:
// it flips one bit of the on-disk record — header, ID and payload — of
// block id, in place, finding the record through a throwaway read-only
// open, which touches nothing and is safe beside a live owner. This is
// the one seam through which tests and drills damage a specific block.
func (in *Injector) RotStoredBlock(dir string, id blockstore.ID) (rotten []byte, path string, off int64, err error) {
	bs, err := blockstore.Open(dir, blockstore.Options{ReadOnly: true})
	if err != nil {
		return nil, "", 0, err
	}
	path, off, n, err := bs.Locate(id)
	bs.Close()
	if err != nil {
		return nil, "", 0, err
	}
	rotten, err = in.rotExtent(path, off, n)
	return rotten, path, off, err
}

// rotExtent flips one bit (see FlipBit) of the n bytes at off of the
// file at path, in place, and returns the rotten image.
func (in *Injector) rotExtent(path string, off, n int64) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw := make([]byte, n)
	if _, err := f.ReadAt(raw, off); err != nil {
		return nil, err
	}
	rotten := in.FlipBit(raw)
	if _, err = f.WriteAt(rotten, off); err == nil {
		err = f.Close()
	}
	return rotten, err
}

// errWriter fails every write with err.
type errWriter struct{ err error }

func (w errWriter) Write(p []byte) (int, error) { return 0, w.err }

// tornWriter forwards the first `left` bytes and then fails — a short
// write followed by an error, the classic torn-write shape.
type tornWriter struct {
	w    io.Writer
	left int
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if tw.left <= 0 {
		return 0, ErrNoSpace
	}
	if len(p) <= tw.left {
		n, err := tw.w.Write(p)
		tw.left -= n
		return n, err
	}
	n, err := tw.w.Write(p[:tw.left])
	tw.left -= n
	if err != nil {
		return n, err
	}
	return n, ErrNoSpace
}
