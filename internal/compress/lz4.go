package compress

import (
	"encoding/binary"
	"fmt"
)

// lz4 is a from-scratch implementation of the LZ4 block format
// (token / literals / 2-byte offset / match extension), the
// byte-oriented LZ codec family of nvCOMP's LZ4 backend. It favors
// speed over ratio: a single 64K-entry hash table of 4-byte sequences,
// greedy matching, 64 KiB window.
type lz4 struct{}

// NewLZ4 returns the LZ4-style codec.
func NewLZ4() Codec { return lz4{} }

func (lz4) Name() string { return "LZ4" }

// ModeledRate mirrors nvCOMP LZ4 on an A100 (~35 GB/s compression).
func (lz4) ModeledRate() float64 { return 35e9 }

const (
	lz4MinMatch  = 4
	lz4MaxOffset = 65535
	lz4HashBits  = 16
)

func lz4Hash(u uint32) uint32 {
	return (u * 2654435761) >> (32 - lz4HashBits)
}

func (lz4) Compress(src []byte) ([]byte, error) {
	if len(src) == 0 {
		return []byte{}, nil
	}
	dst := make([]byte, 0, len(src)/2+32)
	var table [1 << lz4HashBits]int32
	for i := range table {
		table[i] = -1
	}

	emit := func(litStart, litEnd, matchLen, offset int) {
		litLen := litEnd - litStart
		token := byte(0)
		if litLen >= 15 {
			token = 0xF0
		} else {
			token = byte(litLen) << 4
		}
		if matchLen > 0 {
			ml := matchLen - lz4MinMatch
			if ml >= 15 {
				token |= 0x0F
			} else {
				token |= byte(ml)
			}
		}
		dst = append(dst, token)
		if litLen >= 15 {
			rest := litLen - 15
			for rest >= 255 {
				dst = append(dst, 255)
				rest -= 255
			}
			dst = append(dst, byte(rest))
		}
		dst = append(dst, src[litStart:litEnd]...)
		if matchLen > 0 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
			ml := matchLen - lz4MinMatch
			if ml >= 15 {
				rest := ml - 15
				for rest >= 255 {
					dst = append(dst, 255)
					rest -= 255
				}
				dst = append(dst, byte(rest))
			}
		}
	}

	anchor := 0
	pos := 0
	limit := len(src) - lz4MinMatch
	for pos <= limit {
		h := lz4Hash(binary.LittleEndian.Uint32(src[pos:]))
		cand := table[h]
		table[h] = int32(pos)
		if cand >= 0 && pos-int(cand) <= lz4MaxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[pos:]) {
			// Extend the match forward.
			m := pos + lz4MinMatch
			c := int(cand) + lz4MinMatch
			for m < len(src) && src[m] == src[c] {
				m++
				c++
			}
			emit(anchor, pos, m-pos, pos-int(cand))
			pos = m
			anchor = m
			continue
		}
		pos++
	}
	// Trailing literals.
	emit(anchor, len(src), 0, 0)
	return dst, nil
}

func (lz4) Decompress(src []byte, dstLen int) ([]byte, error) {
	if dstLen < 0 {
		return nil, fmt.Errorf("lz4: negative output length %d", dstLen)
	}
	dst := make([]byte, 0, dstLen)
	pos := 0
	for pos < len(src) {
		token := src[pos]
		pos++
		litLen := int(token >> 4)
		if litLen == 15 {
			for {
				if pos >= len(src) {
					return nil, fmt.Errorf("lz4: truncated literal length")
				}
				b := src[pos]
				pos++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if pos+litLen > len(src) {
			return nil, fmt.Errorf("lz4: truncated literals")
		}
		if len(dst)+litLen > dstLen {
			return nil, fmt.Errorf("lz4: output overruns %d bytes", dstLen)
		}
		dst = append(dst, src[pos:pos+litLen]...)
		pos += litLen
		if pos >= len(src) {
			break // final literals-only sequence
		}
		if pos+2 > len(src) {
			return nil, fmt.Errorf("lz4: truncated offset")
		}
		offset := int(binary.LittleEndian.Uint16(src[pos:]))
		pos += 2
		if offset == 0 || offset > len(dst) {
			return nil, fmt.Errorf("lz4: invalid offset %d at output %d", offset, len(dst))
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			for {
				if pos >= len(src) {
					return nil, fmt.Errorf("lz4: truncated match length")
				}
				b := src[pos]
				pos++
				matchLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		matchLen += lz4MinMatch
		if len(dst)+matchLen > dstLen {
			return nil, fmt.Errorf("lz4: output overruns %d bytes", dstLen)
		}
		// Byte-by-byte copy: matches may overlap their own output.
		start := len(dst) - offset
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[start+i])
		}
	}
	if len(dst) != dstLen {
		return nil, fmt.Errorf("lz4: decompressed %d bytes, want %d", len(dst), dstLen)
	}
	return dst, nil
}
