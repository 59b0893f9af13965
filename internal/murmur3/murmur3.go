// Package murmur3 implements the 128-bit x64 variant of MurmurHash3,
// the non-cryptographic hash function used by the paper to fingerprint
// checkpoint chunks (Tan et al., ICPP 2023, §2.4).
//
// The implementation follows Austin Appleby's reference
// (MurmurHash3_x64_128) and is allocation-free: every entry point
// returns digests as value types so hot loops hashing millions of
// chunks do not touch the garbage collector. The entry points:
//
//   - Sum128 hashes one message: block identities (blockstore.IDOf),
//     image digests, the one-at-a-time chunk hash.
//   - Sum128x2 hashes two messages at once, the leaf sweep's chunk
//     pairs; two messages of one length from 32 to 512 bytes, a power
//     of two, take that length's fixed kernel.
//   - Sum128x8 hashes eight consecutive messages of one length, the
//     leaf sweep's runs of whole chunks: on a CPU with AVX512F and
//     AVX512DQ each 64-bit lane of a zmm register runs one message's
//     chain (x8_amd64.s), elsewhere it is four Sum128x2 calls.
//   - SumPair hashes two digests' concatenation, the Merkle node
//     combiner, as a fixed 32-byte message.
//
// Every one of them gives exactly the digest of the reference.
package murmur3

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Digest is a 128-bit hash value. The two halves correspond to the h1
// and h2 state words of the reference implementation.
type Digest struct {
	H1 uint64
	H2 uint64
}

// IsZero reports whether d is the all-zero digest. The all-zero digest
// is reserved by callers (e.g. the Merkle tree) as "no hash recorded";
// Sum128 never returns it for non-degenerate input except for the
// empty string with seed 0, which callers never hash.
func (d Digest) IsZero() bool { return d.H1 == 0 && d.H2 == 0 }

// Bytes returns the canonical little-endian 16-byte serialization of d.
func (d Digest) Bytes() [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], d.H1)
	binary.LittleEndian.PutUint64(b[8:16], d.H2)
	return b
}

// FromBytes reconstructs a Digest from its Bytes serialization.
func FromBytes(b [16]byte) Digest {
	return Digest{
		H1: binary.LittleEndian.Uint64(b[0:8]),
		H2: binary.LittleEndian.Uint64(b[8:16]),
	}
}

const (
	c1 = 0x87c37b91114253d5
	c2 = 0x4cf5ad432745937f
)

//ckptlint:noalloc
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Sum128 computes the MurmurHash3 x64 128-bit hash of data with the
// given seed.
//
//ckptlint:noalloc
func Sum128(data []byte, seed uint32) Digest {
	return finish(uint64(seed), uint64(seed), data, uint64(len(data)))
}

// Sum128x2 hashes two independent messages at once and returns exactly
// (Sum128(a, seed), Sum128(b, seed)). One Murmur3 stream is a serial
// multiply-rotate chain, so on the 32-512 byte chunks Algorithm 1
// hashes it is bound by latency, not by bandwidth; interleaving two
// chains over their common 16-byte blocks lets the core overlap them.
// Two inputs of one kernel length (32, 64, 128, 256 or 512 bytes, the
// chunk sizes of §3.3) take that length's fixed kernel.
//
//ckptlint:noalloc
func Sum128x2(a, b []byte, seed uint32) (Digest, Digest) {
	if len(a) == len(b) {
		if p, ok := fixed2(a, b, seed); ok {
			n := uint64(len(a))
			return fmixState(p.a1, p.a2, n), fmixState(p.b1, p.b2, n)
		}
	}
	a1, a2 := uint64(seed), uint64(seed)
	b1, b2 := a1, a2
	ra, rb := a, b
	for len(ra) >= 16 && len(rb) >= 16 {
		a1, a2 = mixBlock(a1, a2, binary.LittleEndian.Uint64(ra[:8]), binary.LittleEndian.Uint64(ra[8:16]))
		b1, b2 = mixBlock(b1, b2, binary.LittleEndian.Uint64(rb[:8]), binary.LittleEndian.Uint64(rb[8:16]))
		ra, rb = ra[16:], rb[16:]
	}
	return finish(a1, a2, ra, uint64(len(a))), finish(b1, b2, rb, uint64(len(b)))
}

// Sum128x8 hashes the eight consecutive n-byte messages that open data
// and writes exactly their eight Sum128 digests to out, in order; data
// must hold at least 8·n bytes. Writing in place spares a caller that
// hashes a buffer eight chunks at a time a 128-byte result copy per
// call. Where the CPU has AVX512F and AVX512DQ and n is a multiple of
// 16, one kernel runs the eight chains in the eight lanes of a zmm
// register, the CPU analog of the paper's one GPU thread per chunk;
// otherwise it makes four Sum128x2 calls. The kernel is chosen once,
// at package init.
//
//ckptlint:noalloc
func Sum128x8(out *[8]Digest, data []byte, n int, seed uint32) {
	msgs := data[: 8*n : len(data)]
	if useAVX512 && n%16 == 0 {
		sum128x8(out, unsafe.SliceData(msgs), uint64(len(msgs)/8), uint64(seed))
		return
	}
	for i := 0; i < 8; i += 2 {
		out[i], out[i+1] = Sum128x2(msgs[i*n:(i+1)*n], msgs[(i+1)*n:(i+2)*n], seed)
	}
}

// pair is the state of two interleaved streams, a and b.
type pair struct{ a1, a2, b1, b2 uint64 }

// fixed2 runs the kernel for the common length of a and b, and reports
// whether there is one. The kernels read through array pointers at
// constant offsets, so no block pays a bounds check or a reslice, and
// their digests skip the tail, which a kernel length never has.
//
//ckptlint:noalloc
func fixed2(a, b []byte, seed uint32) (pair, bool) {
	h := uint64(seed)
	p := pair{h, h, h, h}
	switch len(a) {
	case 32:
		return p.mix32((*[32]byte)(a), (*[32]byte)(b)), true
	case 64:
		return p.mix64((*[64]byte)(a), (*[64]byte)(b)), true
	case 128:
		return p.mix128((*[128]byte)(a), (*[128]byte)(b)), true
	case 256:
		return p.mix256((*[256]byte)(a), (*[256]byte)(b)), true
	case 512:
		return p.mix512((*[512]byte)(a), (*[512]byte)(b)), true
	}
	return p, false
}

// mix32 folds 32 bytes of each stream into p, unrolled: the kernel
// every longer one is made of.
//
//ckptlint:noalloc
func (p pair) mix32(a, b *[32]byte) pair {
	le := binary.LittleEndian
	p.a1, p.a2 = mixBlock(p.a1, p.a2, le.Uint64(a[0:8]), le.Uint64(a[8:16]))
	p.b1, p.b2 = mixBlock(p.b1, p.b2, le.Uint64(b[0:8]), le.Uint64(b[8:16]))
	p.a1, p.a2 = mixBlock(p.a1, p.a2, le.Uint64(a[16:24]), le.Uint64(a[24:32]))
	p.b1, p.b2 = mixBlock(p.b1, p.b2, le.Uint64(b[16:24]), le.Uint64(b[24:32]))
	return p
}

// mix64 folds 64 bytes of each stream into p: two mix32 steps.
//
//ckptlint:noalloc
func (p pair) mix64(a, b *[64]byte) pair {
	return p.mix32((*[32]byte)(a[:32]), (*[32]byte)(b[:32])).mix32((*[32]byte)(a[32:]), (*[32]byte)(b[32:]))
}

// mix128 folds 128 bytes of each stream into p: two mix64 steps.
//
//ckptlint:noalloc
func (p pair) mix128(a, b *[128]byte) pair {
	return p.mix64((*[64]byte)(a[:64]), (*[64]byte)(b[:64])).mix64((*[64]byte)(a[64:]), (*[64]byte)(b[64:]))
}

// mix256 folds 256 bytes of each stream into p: two mix128 steps.
//
//ckptlint:noalloc
func (p pair) mix256(a, b *[256]byte) pair {
	return p.mix128((*[128]byte)(a[:128]), (*[128]byte)(b[:128])).mix128((*[128]byte)(a[128:]), (*[128]byte)(b[128:]))
}

// mix512 folds 512 bytes of each stream into p: two mix256 steps.
//
//ckptlint:noalloc
func (p pair) mix512(a, b *[512]byte) pair {
	return p.mix256((*[256]byte)(a[:256]), (*[256]byte)(b[:256])).mix256((*[256]byte)(a[256:]), (*[256]byte)(b[256:]))
}

// mixBlock folds one 16-byte block (k1, k2) into the state.
//
//ckptlint:noalloc
func mixBlock(h1, h2, k1, k2 uint64) (uint64, uint64) {
	k1 *= c1
	k1 = bits.RotateLeft64(k1, 31)
	k1 *= c2
	h1 ^= k1

	h1 = bits.RotateLeft64(h1, 27)
	h1 += h2
	h1 = h1*5 + 0x52dce729

	k2 *= c2
	k2 = bits.RotateLeft64(k2, 33)
	k2 *= c1
	h2 ^= k2

	h2 = bits.RotateLeft64(h2, 31)
	h2 += h1
	h2 = h2*5 + 0x38495ab5
	return h1, h2
}

// finish folds the not yet consumed part of a message (whole blocks,
// then the tail) into the state and finalizes it; total is the length
// of the whole message.
//
//ckptlint:noalloc
func finish(h1, h2 uint64, data []byte, total uint64) Digest {
	tail := data
	for len(tail) >= 16 {
		h1, h2 = mixBlock(h1, h2, binary.LittleEndian.Uint64(tail[:8]), binary.LittleEndian.Uint64(tail[8:16]))
		tail = tail[16:]
	}

	var k1, k2 uint64
	switch len(tail) & 15 {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1
	}
	return fmixState(h1, h2, total)
}

// fmixState finalizes a stream whose message, total bytes long, is all
// folded into (h1, h2).
//
//ckptlint:noalloc
func fmixState(h1, h2, total uint64) Digest {
	h1 ^= total
	h2 ^= total

	h1 += h2
	h2 += h1

	h1 = fmix64(h1)
	h2 = fmix64(h2)

	h1 += h2
	h2 += h1

	return Digest{H1: h1, H2: h2}
}

// SumPair hashes the concatenation of two digests. It is the node
// combiner of the Merkle tree: Tree(node) = SumPair(left, right).
// The 32 bytes are the two Bytes serializations, whose 8-byte words
// are the digests' halves, so it folds the halves in as the two
// blocks of a 32-byte message without serializing anything.
//
//ckptlint:noalloc
func SumPair(left, right Digest, seed uint32) Digest {
	h1, h2 := mixBlock(uint64(seed), uint64(seed), left.H1, left.H2)
	h1, h2 = mixBlock(h1, h2, right.H1, right.H2)
	return fmixState(h1, h2, 32)
}
