package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/gpuckpt/gpuckpt/internal/recframe"
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
	// ErrSimulatedCrash is recframe.ErrSimulatedCrash: an error injected
	// by a fault-injection seam that models the process dying at that
	// instant. The FileStore propagates it WITHOUT running its usual
	// cleanup (a half-written frame stays, block references stay taken)
	// and refuses every later write, exactly as a real crash would leave
	// the directory until the next open.
	ErrSimulatedCrash = recframe.ErrSimulatedCrash
	// ErrOldLayout reports a lineage directory written by the
	// file-per-checkpoint store this one replaced. There is no reader
	// for that layout and nothing in the directory is touched.
	ErrOldLayout = errors.New("checkpoint: directory holds the file-per-checkpoint layout, which this store does not read")
)

// CorruptError is a stored diff that failed verification: a checksum
// mismatch, an undecodable payload, or an id that does not match its
// record. It matches ErrCorrupt via errors.Is. Scrub reports the diff,
// which stays in range failing its reads; a client can repair it from a
// ckptd peer.
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
