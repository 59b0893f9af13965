package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Manifest is the on-disk lifecycle state of one lineage directory: the
// index of the materialized baseline (the first stored diff, a
// consolidated full checkpoint after the first compaction) and the name
// of the live segment. It is the commit record of
// every span install: a lineage's restorable range is [Base, Len), and
// the one rename that publishes a new manifest is what switches the
// lineage from its old segment to a freshly written one.
//
// The manifest is written atomically (recframe.Commit) and decoded
// defensively (exact length, reserved bytes zero), the same posture as
// the wire and diff formats: a corrupt manifest must fail loudly, never
// silently move the baseline.
type Manifest struct {
	// Base is the absolute index of the baseline checkpoint. Diffs
	// below Base have been folded into the baseline and are gone.
	// Zero for a never-compacted lineage.
	Base uint32
	// Generation counts committed manifest rewrites; it only moves
	// forward.
	Generation uint64

	// segment numbers the live segment file (see segmentName). It
	// belongs to the FileStore: InstallSpan advances it.
	segment uint32
}

const (
	manifestMagic   = 0x4d_4c_43_47 // "GCLM" little-endian
	manifestVersion = 2
	manifestSize    = 4 + 1 + 4 + 8 + 4 + 4 // magic, version, base, generation, segment, reserved

	// ManifestFileName is the manifest's name inside a lineage
	// directory.
	ManifestFileName = "lineage.manifest"
)

// Encode returns the canonical little-endian serialization of m. The
// last four bytes (offset 21) are reserved and zero: format version 2
// counted pinned checkpoints there, a capability nothing could reach,
// so every manifest ever written carries zero.
func (m *Manifest) Encode() []byte {
	buf := make([]byte, manifestSize)
	binary.LittleEndian.PutUint32(buf[0:], manifestMagic)
	buf[4] = manifestVersion
	binary.LittleEndian.PutUint32(buf[5:], m.Base)
	binary.LittleEndian.PutUint64(buf[9:], m.Generation)
	binary.LittleEndian.PutUint32(buf[17:], m.segment)
	return buf
}

// ErrManifestReserved reports a manifest whose reserved bytes are not
// zero: it names state this build does not hold, so it is refused
// rather than silently dropped.
var ErrManifestReserved = errors.New("checkpoint: manifest reserved field is not zero")

// DecodeManifest parses a manifest previously written by Encode; the
// input must be exactly one manifest.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < manifestSize {
		return nil, errors.New("checkpoint: truncated manifest")
	}
	if binary.LittleEndian.Uint32(b[0:]) != manifestMagic {
		return nil, errors.New("checkpoint: bad manifest magic")
	}
	if b[4] != manifestVersion {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d", b[4])
	}
	if v := binary.LittleEndian.Uint32(b[21:]); v != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrManifestReserved, v)
	}
	if len(b) != manifestSize {
		return nil, fmt.Errorf("checkpoint: manifest carries %d trailing bytes", len(b)-manifestSize)
	}
	return &Manifest{
		Base:       binary.LittleEndian.Uint32(b[5:]),
		Generation: binary.LittleEndian.Uint64(b[9:]),
		segment:    binary.LittleEndian.Uint32(b[17:]),
	}, nil
}

// ReadManifestFile loads and decodes a manifest file.
func ReadManifestFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: manifest %s: %w", path, err)
	}
	return m, nil
}
