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
		var err error
		if encoded, err = fs.appendDiff(encoded[:0], ck, nil, &sc); err != nil {
			return nil, err
		}
		out = append(out, DiffChecksum(encoded))
	}
	return out, nil
}

// VerifySpan re-reads and verifies every stored diff — record
// checksums, block reassembly, structural decode, id cross-check —
// without mutating anything (unlike Scrub, nothing is quarantined).
// It returns the first *CorruptError found, or nil when the whole
// stored span is intact. This is the read-only health gate a standby
// runs before agreeing to be promoted.
func (fs *FileStore) VerifySpan() error {
	base := fs.Base()
	length := fs.Len()
	var sc ReadScratch
	for ck := base; ck < length; ck++ {
		if _, err := fs.decodeVerified(ck, &sc); err != nil {
			return err
		}
	}
	return nil
}

// IsCorrupt reports whether err marks data that failed an integrity
// check — a *CorruptError from this package or a blockstore
// verification failure wrapped in one.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
