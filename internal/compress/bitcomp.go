package compress

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// bitcomp implements a Bitcomp-style fixed-block bit-packing codec:
// the input is viewed as little-endian uint32 words in blocks of 256;
// each block stores one width byte followed by every word packed to
// the block's maximum significant width. Counter arrays whose values
// are small but nonzero — where RLE gains little — still shrink by
// the ratio 32/width. The layout is written and read by AppendPacked
// and AppendUnpacked, which the block store packs its blocks with.
type bitcomp struct{}

// NewBitcomp returns the Bitcomp-style codec.
func NewBitcomp() Codec { return bitcomp{} }

func (bitcomp) Name() string         { return "Bitcomp" }
func (bitcomp) ModeledRate() float64 { return 300e9 }

func (bitcomp) Compress(src []byte) ([]byte, error) {
	return AppendPacked(make([]byte, 0, PackedLen(src)), src), nil
}

func (bitcomp) Decompress(src []byte, dstLen int) ([]byte, error) {
	dst, err := AppendUnpacked(nil, src, dstLen)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// The packed layout: the word count as a uvarint, the length of the
// tail that does not fill a word (one byte) and the tail itself, then
// per group of bitcompGroup words one width byte followed by the
// group's words, each in width bits, least significant bit first; a
// group's last byte is padded with zeros.
const bitcompGroup = 256

// errPacked reports a packed layout that does not decode to the length
// its reader expects: truncated, padded, or declaring other lengths.
var errPacked = errors.New("compress: malformed packed layout")

// groupWidth returns the bit width of the widest of the little-endian
// uint32 words in g, whose length is a multiple of 4. A word with its
// top bit set ends the pass, so random words cost a few loads.
func groupWidth(g []byte) uint {
	const top = 1<<63 | 1<<31
	var or uint64
	for len(g) >= 32 && or&top == 0 {
		or |= binary.LittleEndian.Uint64(g) | binary.LittleEndian.Uint64(g[8:]) |
			binary.LittleEndian.Uint64(g[16:]) | binary.LittleEndian.Uint64(g[24:])
		g = g[32:]
	}
	if or&top != 0 {
		return 32
	}
	for len(g) >= 8 {
		or |= binary.LittleEndian.Uint64(g)
		g = g[8:]
	}
	if len(g) == 4 {
		or |= uint64(binary.LittleEndian.Uint32(g))
	}
	return uint(bits.Len32(uint32(or) | uint32(or>>32)))
}

// PackedLen returns the length of the packed layout of src: one pass
// over its words' widths, which writes nothing. A store compares it
// with len(src) to decide whether packing src gains anything.
func PackedLen(src []byte) int {
	words := len(src) / 4
	// The header: the word count's uvarint, the tail's length and bytes.
	n := (bits.Len64(uint64(words)|1)+6)/7 + 1 + len(src)%4
	for at := 0; at < words; at += bitcompGroup {
		g := min(words-at, bitcompGroup)
		n += 1 + (g*int(groupWidth(src[at*4:(at+g)*4]))+7)/8
	}
	return n
}

// AppendPacked appends the packed layout of src to dst, PackedLen(src)
// bytes, and returns the extended slice. It allocates nothing when dst
// has room for them.
//
//ckptlint:noalloc
func AppendPacked(dst, src []byte) []byte {
	words := len(src) / 4
	tail := src[words*4:]
	dst = binary.AppendUvarint(dst, uint64(words))
	dst = append(dst, byte(len(tail)))
	dst = append(dst, tail...)
	for at := 0; at < words; at += bitcompGroup {
		g := src[at*4 : min(at+bitcompGroup, words)*4]
		width := groupWidth(g)
		dst = append(dst, byte(width))
		if width == 0 {
			continue
		}
		var acc uint64
		var accBits uint
		for ; len(g) > 0; g = g[4:] {
			acc |= uint64(binary.LittleEndian.Uint32(g)) << accBits
			if accBits += width; accBits >= 32 {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
				acc >>= 32
				accBits -= 32
			}
		}
		for ; accBits > 0; accBits -= min(accBits, 8) {
			dst = append(dst, byte(acc))
			acc >>= 8
		}
	}
	return dst
}

// AppendUnpacked appends the n bytes the packed layout src holds to dst
// and returns the extended slice. Any src that is not exactly the
// layout of n bytes — trailing bytes included — fails with errPacked
// and dst as it was. The declared lengths are checked against n and
// len(src) before dst grows, and it allocates nothing when dst has room
// for n more bytes.
//
//ckptlint:noalloc
func AppendUnpacked(dst, src []byte, n int) ([]byte, error) {
	words64, pos := binary.Uvarint(src)
	if pos <= 0 || n < 0 || words64 > uint64(n/4) || pos >= len(src) {
		return dst, errPacked
	}
	words := int(words64)
	tail := int(src[pos])
	pos++
	// Every group costs at least its width byte, which bounds what dst
	// grows by before a byte of it is read.
	if tail != n-words*4 || len(src)-pos < tail+(words+bitcompGroup-1)/bitcompGroup {
		return dst, errPacked
	}
	tailSrc := src[pos : pos+tail]
	pos += tail
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	for at := 0; at < words; at += bitcompGroup {
		if pos == len(src) {
			return dst[:start], errPacked
		}
		end := min(at+bitcompGroup, words)
		width := uint(src[pos])
		pos++
		need := ((end-at)*int(width) + 7) / 8
		if width > 32 || len(src)-pos < need {
			return dst[:start], errPacked
		}
		unpackGroup(out[at*4:end*4], src[pos:pos+need], width)
		pos += need
	}
	if pos != len(src) {
		return dst[:start], errPacked
	}
	copy(out[words*4:], tailSrc)
	return dst, nil
}

// unpackGroup fills out with the little-endian words that g packs in
// width bits each; g holds exactly enough bits for them.
//
//ckptlint:noalloc
func unpackGroup(out, g []byte, width uint) {
	if width == 0 {
		clear(out)
		return
	}
	le, mask := binary.LittleEndian, uint64(1)<<width-1
	// Up to 8 bits wide, eight words are one 64-bit load, and the next
	// eight start width bytes on. Small counters are what packs, so this
	// is the common case: it unpacks about twice as fast as the
	// word-at-a-time loop below.
	for w := int(width); width <= 8 && len(out) >= 32 && len(g) >= 8; out, g = out[32:], g[w:] {
		v := le.Uint64(g)
		le.PutUint32(out[0:], uint32(v&mask))
		le.PutUint32(out[4:], uint32(v>>width&mask))
		le.PutUint32(out[8:], uint32(v>>(2*width)&mask))
		le.PutUint32(out[12:], uint32(v>>(3*width)&mask))
		le.PutUint32(out[16:], uint32(v>>(4*width)&mask))
		le.PutUint32(out[20:], uint32(v>>(5*width)&mask))
		le.PutUint32(out[24:], uint32(v>>(6*width)&mask))
		le.PutUint32(out[28:], uint32(v>>(7*width)&mask))
	}
	// acc holds the next accBits bits of g; it takes 32 more at a time,
	// or the group's last bytes one by one.
	var acc uint64
	var accBits uint
	for ; len(out) >= 4; out = out[4:] {
		for accBits < width {
			if len(g) >= 4 {
				acc |= uint64(le.Uint32(g)) << accBits
				g, accBits = g[4:], accBits+32
			} else {
				acc |= uint64(g[0]) << accBits
				g, accBits = g[1:], accBits+8
			}
		}
		le.PutUint32(out, uint32(acc&mask))
		acc >>= width
		accBits -= width
	}
}
