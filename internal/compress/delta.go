package compress

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The delta-packed layout stores a block's little-endian uint32 words
// as the zigzag-encoded differences of consecutive words, the first
// taken from 0 — the delta and bit-packing stages of nvCOMP's Cascaded
// at a granularity of four words. A counter array that changes slowly,
// or whose nonzero words are sparse, has mostly small differences, and
// one large word widens only its own group, not 255 neighbours as in
// the packed layout of AppendPacked.
//
// It is the word count as a uvarint, the length of the tail that does
// not fill a word (one byte) and the tail itself, then two bit streams,
// each least significant bit first and padded with zero bits to a
// byte: the codes, 3 bits per group of deltaGroup words (the last group
// may be shorter) indexing deltaWidths, then the deltas, each of a
// group's zigzag deltas in its code's width. Keeping the codes apart
// lets a reader take sixteen of them in one load and find each group's
// deltas without first decoding the group before it.
const deltaGroup = 4

// deltaWidths are the widths the 3-bit code of a group selects, and
// deltaMasks their masks. The set was chosen by measurement on the
// 4 KiB blocks of an ORANGES GDV chain: {0,1,2,3,4,6,8,32} stores them
// in 0.2 % fewer bytes than {0,1,2,3,4,5,6,32}.
var (
	deltaWidths = [8]uint8{0, 1, 2, 3, 4, 6, 8, 32}
	deltaMasks  = [8]uint32{0, 1, 3, 7, 15, 63, 255, 1<<32 - 1}
)

// deltaWide is the code of full width; every other code's group of
// deltas fits in 32 bits.
const deltaWide = 7

// deltaCode maps a bit length to the code of the narrowest width that
// holds it.
var deltaCode = [33]uint8{0, 1, 2, 3, 4, 5, 5, 6, 6,
	7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}

// unzigzag8 is unzigzag32 of every value a narrow width holds: a table
// load in the decoder's inner loop instead of four operations.
var unzigzag8 = func() (t [256]uint32) {
	for z := range t {
		t[z] = unzigzag32(uint32(z))
	}
	return t
}()

// deltaGiveUp is the run of full-width groups that ends DeltaPackedLen:
// sixteen words in a row whose differences need more than 8 bits are
// random-looking data, which the layout stores longer than it is.
const deltaGiveUp = 4

// zigzag32 maps a difference to an unsigned value that is small when
// the difference is small of either sign; unzigzag32 inverts it.
func zigzag32(d uint32) uint32   { return d<<1 ^ uint32(int32(d)>>31) }
func unzigzag32(z uint32) uint32 { return z>>1 ^ -(z & 1) }

// deltaCodesLen is the length of the code stream of a layout of words
// words.
func deltaCodesLen(words int) int {
	return ((words+deltaGroup-1)/deltaGroup*3 + 7) / 8
}

// DeltaPackedLen returns the length of the delta-packed layout of src,
// one pass that writes nothing, or -1 once it meets deltaGiveUp groups
// in a row that need full width: on random words it gives up within
// the first sixteen. A store compares it with the other forms' lengths
// to decide which to keep.
func DeltaPackedLen(src []byte) int {
	words := len(src) / 4
	nbits, run := 0, 0
	var prev uint32
	le := binary.LittleEndian
	at := 0
	for ; at+deltaGroup <= words; at += deltaGroup {
		g := src[at*4 : at*4+16]
		w0, w1, w2, w3 := le.Uint32(g), le.Uint32(g[4:]), le.Uint32(g[8:]), le.Uint32(g[12:])
		or := zigzag32(w0-prev) | zigzag32(w1-w0) | zigzag32(w2-w1) | zigzag32(w3-w2)
		prev = w3
		width := deltaWidths[deltaCode[bits.Len32(or)]]
		if width == 32 {
			if run++; run == deltaGiveUp {
				return -1
			}
		} else {
			run = 0
		}
		nbits += deltaGroup * int(width)
	}
	if at < words {
		var or uint32
		for ; at < words; at++ {
			w := le.Uint32(src[at*4:])
			or |= zigzag32(w - prev)
			prev = w
		}
		nbits += (words % deltaGroup) * int(deltaWidths[deltaCode[bits.Len32(or)]])
	}
	header := (bits.Len64(uint64(words)|1)+6)/7 + 1 + len(src)%4
	return header + deltaCodesLen(words) + (nbits+7)/8
}

// AppendDeltaPacked appends the delta-packed layout of src to dst and
// returns the extended slice; the layout is DeltaPackedLen(src) bytes
// long when that is not -1. It allocates nothing when dst has room for
// them.
//
//ckptlint:noalloc
func AppendDeltaPacked(dst, src []byte) []byte {
	words := len(src) / 4
	dst = binary.AppendUvarint(dst, uint64(words))
	dst = append(dst, byte(len(src)%4))
	dst = append(dst, src[words*4:]...)
	codesAt := len(dst)
	dst = slices.Grow(dst, deltaCodesLen(words))[:codesAt+deltaCodesLen(words)]
	clear(dst[codesAt:])
	le := binary.LittleEndian
	// codes collects the codes of up to sixteen groups, 48 bits; acc
	// holds the delta stream's next n bits, n below 32 between groups.
	var codes, acc uint64
	var n uint
	var prev uint32
	g := 0
	for ; g < words/deltaGroup; g++ {
		b := src[g*16 : g*16+16]
		w0, w1, w2, w3 := le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[8:]), le.Uint32(b[12:])
		z0, z1, z2, z3 := zigzag32(w0-prev), zigzag32(w1-w0), zigzag32(w2-w1), zigzag32(w3-w2)
		prev = w3
		code := deltaCode[bits.Len32(z0|z1|z2|z3)]
		if codes |= uint64(code) << (g % 16 * 3); g%16 == 15 {
			c := dst[codesAt+g/16*6:]
			le.PutUint32(c, uint32(codes))
			le.PutUint16(c[4:], uint16(codes>>32))
			codes = 0
		}
		if code == deltaWide {
			for _, z := range [deltaGroup]uint32{z0, z1, z2, z3} {
				acc |= uint64(z) << n
				dst = le.AppendUint32(dst, uint32(acc))
				acc >>= 32
			}
			continue
		}
		// A group of narrow deltas is at most 32 bits: one step.
		width := uint(deltaWidths[code]) & 31
		v := (uint64(z3)<<width|uint64(z2))<<width | uint64(z1)
		acc |= (v<<width | uint64(z0)) << n
		if n += deltaGroup * width; n >= 32 {
			dst = le.AppendUint32(dst, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	if at := g * deltaGroup; at < words { // a short last group
		var zs [deltaGroup]uint32
		var or uint32
		for i := range zs[:words-at] {
			w := le.Uint32(src[(at+i)*4:])
			zs[i], prev = zigzag32(w-prev), w
			or |= zs[i]
		}
		code := deltaCode[bits.Len32(or)]
		codes |= uint64(code) << (g % 16 * 3)
		width := uint(deltaWidths[code])
		for _, z := range zs[:words-at] {
			acc |= uint64(z) << n
			if n += width; n >= 32 {
				dst = le.AppendUint32(dst, uint32(acc))
				acc >>= 32
				n -= 32
			}
		}
	}
	for i := codesAt + g/16*6; codes != 0; i++ {
		dst[i] = byte(codes)
		codes >>= 8
	}
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// AppendDeltaUnpacked appends the n bytes the delta-packed layout src
// holds to dst and returns the extended slice. Any src that is not
// exactly the layout of n bytes — trailing bytes or nonzero padding
// bits included — fails with errPacked and dst as it was. The declared
// lengths are checked against n and len(src) before dst grows, nothing
// past the n bytes is written, and it allocates nothing when dst has
// room for n more bytes.
//
//ckptlint:noalloc
func AppendDeltaUnpacked(dst, src []byte, n int) ([]byte, error) {
	words64, pos := binary.Uvarint(src)
	if pos <= 0 || n < 0 || words64 > uint64(n/4) || pos >= len(src) {
		return dst, errPacked
	}
	words := int(words64)
	tail := int(src[pos])
	pos++
	ncodes := deltaCodesLen(words)
	if tail != n-words*4 || len(src)-pos < tail+ncodes {
		return dst, errPacked
	}
	tailSrc := src[pos : pos+tail]
	codes, deltas := src[pos+tail:pos+tail+ncodes], src[pos+tail+ncodes:]
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	end, ok := unpackDeltas(out[:words*4], codes, deltas)
	used := (words + deltaGroup - 1) / deltaGroup * 3
	if !ok || (end+7)/8 != uint(len(deltas)) ||
		end%8 != 0 && deltas[end/8]>>(end%8) != 0 || used%8 != 0 && codes[used/8]>>(used%8) != 0 {
		return dst[:start], errPacked
	}
	copy(out[words*4:], tailSrc)
	return dst, nil
}

// deltaSpan bounds the bytes a group's decode loads from past its
// first delta's byte: a full-width group's last delta starts 96 bits on
// and is read by an 8-byte load.
const deltaSpan = (3*32+7)/8 + 8

// unpackDeltas fills out, a whole number of words, from the code and
// delta streams of a layout, and returns the bit of deltas its last
// group ends at; ok is false when a group reads past the deltas' end.
// A group is read in place while it has a full deltaSpan of bytes from
// its first; the groups after that, from a zero-padded copy of the
// stream's last bytes.
//
//ckptlint:noalloc
func unpackDeltas(out, codes, deltas []byte) (end uint, ok bool) {
	le := binary.LittleEndian
	var prev uint32
	var pad [2 * deltaSpan]byte
	// src is what the groups are read from — deltas, then the copy — and
	// bp the bit of src the next starts at; base is the bit of deltas
	// where src starts.
	src, bp, base, padded := deltas, uint(0), uint(0), false
	for g := 0; len(out) > 0; g += 16 {
		cw := load64(codes, uint(g/16*6)) // the codes of the next sixteen groups
		o := out[:min(len(out), 16*4*deltaGroup)]
		out = out[len(o):]
		for ; len(o) > 0; o, cw = o[min(len(o), 4*deltaGroup):], cw>>3 {
			if int(bp/8)+deltaSpan > len(src) {
				if padded {
					return 0, false // past the copy too: the stream is short
				}
				at := bp / 8
				for i, b := range deltas[at:] { // a copy without a call in the loop
					pad[i] = b
				}
				src, bp, base, padded = pad[:], bp%8, at*8, true
			}
			c := cw & 7
			if c == deltaWide || len(o) < 4*deltaGroup {
				bp, prev = unpackWords(o[:min(len(o), 4*deltaGroup)], src, bp, uint(deltaWidths[c]), deltaMasks[c], prev)
				continue
			}
			if c == 0 { // every delta zero
				_ = o[15]
				le.PutUint32(o, prev)
				le.PutUint32(o[4:], prev)
				le.PutUint32(o[8:], prev)
				le.PutUint32(o[12:], prev)
				continue
			}
			// Narrow: at most 32 bits, which one load holds.
			width, mask := uint(deltaWidths[c])&31, deltaMasks[c]
			d := uint32(le.Uint64(src[bp/8:]) >> (bp % 8))
			bp += deltaGroup * width
			_ = o[15]
			prev += unzigzag8[uint8(d&mask)]
			le.PutUint32(o, prev)
			d >>= width
			prev += unzigzag8[uint8(d&mask)]
			le.PutUint32(o[4:], prev)
			d >>= width
			prev += unzigzag8[uint8(d&mask)]
			le.PutUint32(o[8:], prev)
			d >>= width
			prev += unzigzag8[uint8(d&mask)]
			le.PutUint32(o[12:], prev)
		}
	}
	return base + bp, true
}

// unpackWords decodes the words of out a word at a time, each width bits
// from bit bp of s on, prev the word before them, and returns the bit
// after them and the last word: a full-width group, or a short last one.
func unpackWords(out, s []byte, bp, width uint, mask, prev uint32) (uint, uint32) {
	for ; len(out) >= 4; out, bp = out[4:], bp+width {
		prev += unzigzag32(uint32(binary.LittleEndian.Uint64(s[bp/8:])>>(bp%8)) & mask)
		binary.LittleEndian.PutUint32(out, prev)
	}
	return bp, prev
}

// load64 returns the little-endian uint64 at s[i:], the bytes past the
// end of s read as zeros.
func load64(s []byte, i uint) uint64 {
	if i+8 <= uint(len(s)) {
		return binary.LittleEndian.Uint64(s[i:])
	}
	var v uint64
	for j := i; j < uint(len(s)); j++ {
		v |= uint64(s[j]) << (8 * (j - i))
	}
	return v
}
