package compress

import (
	"encoding/binary"
	"fmt"
)

// cascaded implements the delta + run-length scheme of nvCOMP's
// Cascaded codec family, specialized for 32-bit integer payloads such
// as the GDV counter arrays of the driver application: the input is
// viewed as little-endian uint32 words, delta-encoded, and runs of
// equal deltas are stored as (count, zigzag-delta) varint pairs. Long
// zero and constant regions — the common case for sparse graphlet
// counters — collapse to a few bytes.
type cascaded struct{}

// NewCascaded returns the Cascaded codec.
func NewCascaded() Codec { return cascaded{} }

func (cascaded) Name() string         { return "Cascaded" }
func (cascaded) ModeledRate() float64 { return 150e9 }

func (cascaded) Compress(src []byte) ([]byte, error) {
	nWords := len(src) / 4
	tail := src[nWords*4:]
	// Header: word count varint, tail length byte, tail bytes raw.
	dst := appendUvarint(nil, uint64(nWords))
	dst = append(dst, byte(len(tail)))
	dst = append(dst, tail...)

	var prev uint32
	i := 0
	for i < nWords {
		v := binary.LittleEndian.Uint32(src[i*4:])
		delta := int64(int32(v - prev))
		run := 1
		last := v
		for i+run < nWords {
			next := binary.LittleEndian.Uint32(src[(i+run)*4:])
			if int64(int32(next-last)) != delta {
				break
			}
			last = next
			run++
		}
		dst = appendUvarint(dst, uint64(run))
		dst = appendUvarint(dst, zigzag(delta))
		prev = last
		i += run
	}
	return dst, nil
}

func (cascaded) Decompress(src []byte, dstLen int) ([]byte, error) {
	nWords64, pos, err := readUvarint(src, 0)
	if err != nil {
		return nil, err
	}
	// Bounded before any arithmetic: a word count past dstLen/4 must
	// not wrap nWords*4 into range.
	if dstLen < 0 || nWords64 > uint64(dstLen/4) {
		return nil, fmt.Errorf("cascaded: %d words do not fit %d bytes", nWords64, dstLen)
	}
	nWords := int(nWords64)
	if pos >= len(src) {
		return nil, fmt.Errorf("cascaded: truncated header")
	}
	tailLen := int(src[pos])
	pos++
	if pos+tailLen > len(src) {
		return nil, fmt.Errorf("cascaded: truncated tail")
	}
	tail := src[pos : pos+tailLen]
	pos += tailLen

	if nWords*4+tailLen != dstLen {
		return nil, fmt.Errorf("cascaded: payload %d+%d != expected %d", nWords*4, tailLen, dstLen)
	}
	dst := make([]byte, dstLen)
	var prev uint32
	out := 0
	for out < nWords {
		run64, p, err := readUvarint(src, pos)
		if err != nil {
			return nil, err
		}
		pos = p
		dz, p2, err := readUvarint(src, pos)
		if err != nil {
			return nil, err
		}
		pos = p2
		delta := uint32(int32(unzigzag(dz)))
		if run64 > uint64(nWords-out) {
			return nil, fmt.Errorf("cascaded: run overflows word count")
		}
		run := int(run64)
		for r := 0; r < run; r++ {
			prev += delta
			binary.LittleEndian.PutUint32(dst[out*4:], prev)
			out++
		}
	}
	copy(dst[nWords*4:], tail)
	return dst, nil
}
