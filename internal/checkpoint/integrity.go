package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"syscall"
)

// On-disk integrity: every record of a lineage segment carries a
// CRC32C (Castagnoli) of its payload and one of its own header (see
// segment.go). The framing is storage-local: it is written when a diff
// is committed to disk and stripped before the bytes are decoded or
// served over the wire, so the wire format and the Record are
// unaffected. A record that fails verification is surfaced as a typed
// *CorruptError (matching ErrCorrupt via errors.Is) — bit rot is
// detected at read time, never silently restored.

// castagnoli matches the polynomial of the wire package's push
// checksum, so a stored diff's content checksum equals the hash the
// PUSH precondition compares.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DiffChecksum returns the content checksum of encoded diff bytes: the
// CRC32C of the canonical encoding, which span digests compare across
// replicas.
func DiffChecksum(encoded []byte) uint32 { return crc32.Checksum(encoded, castagnoli) }

// Integrity errors.
var (
	// ErrCorrupt matches (via errors.Is) every *CorruptError: a stored
	// diff failed its integrity check and must not be restored.
	ErrCorrupt = errors.New("checkpoint: corrupt diff")
	// ErrChecksumMismatch reports a stored record whose checksums do
	// not cover its bytes. It wraps into a *CorruptError at the
	// FileStore surface.
	ErrChecksumMismatch = errors.New("checkpoint: diff checksum mismatch")
	// ErrSimulatedCrash marks an error injected by a fault-injection
	// hook that models the process dying at that instant: the FileStore
	// propagates it WITHOUT running its usual cleanup (a half-written
	// frame stays, block references stay taken) and refuses every later
	// write, exactly as a real crash would leave the directory until
	// the next open. Only fault-injection seams return it.
	ErrSimulatedCrash = errors.New("checkpoint: simulated crash")
	// ErrOldLayout reports a lineage directory written by the
	// file-per-checkpoint store this one replaced. There is no reader
	// for that layout and nothing in the directory is touched.
	ErrOldLayout = errors.New("checkpoint: directory holds the file-per-checkpoint layout, which this store does not read")
)

// CorruptError is a stored diff that failed verification: a checksum
// mismatch, an undecodable payload, or an id that does not match its
// record. It matches ErrCorrupt via errors.Is. Scrub quarantines the
// diff; a client can then repair it from a ckptd peer.
type CorruptError struct {
	Path string
	Ckpt int
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: diff %d (%s) is corrupt: %v", e.Ckpt, e.Path, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CorruptError) Unwrap() error { return e.Err }

// Is lets errors.Is match any CorruptError against ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// IOHooks intercepts FileStore I/O at its failure points. Every field
// is optional; a nil hook struct (the default) costs one nil check per
// operation. This is the storage seam of the fault-injection framework
// (internal/faults): short and torn writes, fsync failures, crashes
// around the manifest rename and read-time bit rot are all injected
// here rather than by patching the filesystem.
type IOHooks struct {
	// WrapDiffWrite wraps the writer records go through — an appended
	// frame (ck is its first id) or a whole new segment (ck is its
	// baseline); the returned writer can truncate, error (ENOSPC) or
	// tear the stream.
	WrapDiffWrite func(ck int, w io.Writer) io.Writer
	// BeforeSync runs before a segment or a staged manifest is fsynced.
	BeforeSync func(path string) error
	// BeforeRename runs between a staged manifest's fsync+close and
	// the rename that publishes it (InstallSpan).
	BeforeRename func(tmp, final string) error
	// AfterRename runs between that rename and the directory fsync
	// that makes it crash-durable.
	AfterRename func(final string) error
	// OnDiffRead may transform (corrupt) the raw record bytes — header
	// and payload — read from the segment before verification sees
	// them.
	OnDiffRead func(ck int, raw []byte) []byte
}

func (h *IOHooks) wrapWrite(ck int, w io.Writer) io.Writer {
	if h == nil || h.WrapDiffWrite == nil {
		return w
	}
	return h.WrapDiffWrite(ck, w)
}

// sync makes f durable, through the BeforeSync seam.
func (h *IOHooks) sync(f *os.File) error {
	if h != nil && h.BeforeSync != nil {
		if err := h.BeforeSync(f.Name()); err != nil {
			return err
		}
	}
	return f.Sync()
}

// syncDir fsyncs a directory, making a just-renamed file durable
// across power loss. Filesystems that refuse directory fsync (some
// network mounts) report EINVAL or ENOTSUP, which is treated as
// success. The raw errno values must be matched — a *PathError
// wrapping syscall.EINVAL never matches os.ErrInvalid.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: opening %s for sync: %w", dir, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("checkpoint: syncing %s: %w", dir, err)
	}
	return nil
}
