package checkpoint

import (
	"errors"
	"fmt"
)

// Anti-entropy digest plumbing: per-diff CONTENT checksums over a
// stored span. The content checksum is the CRC32C of the canonical
// diff encoding — the bytes a pull serves and a push's precondition
// hashes — NOT the raw record bytes: the same diff stored
// self-contained on one replica and block-mapped on another has
// different on-disk images but identical canonical encodings, and a
// digest that compared record bytes would see phantom divergence
// between healthy replicas.
//
// Computing a span checksum re-reads and re-verifies every diff in
// the span; that is the point, not an inefficiency — an anti-entropy
// round that trusted a cached checksum would never notice rot that
// happened after the cache was filled.

// SpanChecksums returns the content checksum of every stored diff in
// [lo, hi), in id order. The span must sit inside [Base, Len). A
// diff that fails verification surfaces as a *CorruptError naming
// the checkpoint (errors.Is ErrCorrupt) — the reconciler's local-rot
// signal.
func (fs *FileStore) SpanChecksums(lo, hi int) ([]uint32, error) {
	base := fs.Base()
	if length := fs.Len(); lo < base || hi > length || hi < lo {
		return nil, fmt.Errorf("checkpoint: digest span [%d,%d) outside stored [%d,%d)", lo, hi, base, length)
	}
	out := make([]uint32, 0, hi-lo)
	// Nothing keeps a diff past its checksum: one buffer and one scratch
	// serve the whole span.
	var encoded []byte
	var sc ReadScratch
	for ck := lo; ck < hi; ck++ {
		var crc uint32
		var err error
		if encoded, crc, err = fs.appendDiff(encoded[:0], ck, nil, &sc); err != nil {
			return nil, err
		}
		out = append(out, crc)
	}
	return out, nil
}

// ScrubReport summarizes a Scrub pass.
type ScrubReport struct {
	// Checked is how many stored diffs were read and verified.
	Checked int
	// Corrupt lists, in ascending order, the absolute checkpoint ids
	// that failed verification.
	Corrupt []int
	// First is the *CorruptError of Corrupt[0]; nil when nothing failed.
	First error
}

// Scrub reads and verifies every stored diff of [Base, Len): record
// checksums, block reassembly, structural decode and id agreement. It
// writes nothing. A corrupt diff stays in range and keeps failing its
// reads typed until ReinstallDiff supersedes it — e.g. with bytes
// refetched from a ckptd peer, see the client's Repair. A failure that
// is not corruption (an I/O error, a missing block store) aborts the
// pass.
func (fs *FileStore) Scrub() (*ScrubReport, error) {
	base := fs.Base()
	length := fs.Len()
	rep := &ScrubReport{}
	var sc ReadScratch
	for ck := base; ck < length; ck++ {
		rep.Checked++
		_, err := fs.decodeVerified(ck, &sc)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			return rep, err
		}
		if rep.First == nil {
			rep.First = err
		}
		rep.Corrupt = append(rep.Corrupt, ck)
	}
	return rep, nil
}

// IsCorrupt reports whether err marks data that failed an integrity
// check — a *CorruptError from this package or a blockstore
// verification failure wrapped in one.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
