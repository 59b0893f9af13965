// Package murmur3 implements the 128-bit x64 variant of MurmurHash3,
// the non-cryptographic hash function used by the paper to fingerprint
// checkpoint chunks (Tan et al., ICPP 2023, §2.4).
//
// The implementation follows Austin Appleby's reference
// (MurmurHash3_x64_128) and is allocation-free: Sum128 returns the
// digest as a value type so hot loops hashing millions of chunks do
// not touch the garbage collector.
package murmur3

import (
	"encoding/binary"
	"math/bits"
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
//
//ckptlint:noalloc
func Sum128x2(a, b []byte, seed uint32) (Digest, Digest) {
	a1, a2 := uint64(seed), uint64(seed)
	b1, b2 := a1, a2
	common := min(len(a), len(b)) &^ 15
	for i := 0; i < common; i += 16 {
		ka1 := binary.LittleEndian.Uint64(a[i:])
		ka2 := binary.LittleEndian.Uint64(a[i+8:])
		kb1 := binary.LittleEndian.Uint64(b[i:])
		kb2 := binary.LittleEndian.Uint64(b[i+8:])
		a1, a2 = mixBlock(a1, a2, ka1, ka2)
		b1, b2 = mixBlock(b1, b2, kb1, kb2)
	}
	return finish(a1, a2, a[common:], uint64(len(a))), finish(b1, b2, b[common:], uint64(len(b)))
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
	nblocks := len(data) / 16
	for i := 0; i < nblocks; i++ {
		k1 := binary.LittleEndian.Uint64(data[i*16:])
		k2 := binary.LittleEndian.Uint64(data[i*16+8:])
		h1, h2 = mixBlock(h1, h2, k1, k2)
	}

	tail := data[nblocks*16:]
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
// It avoids allocating an intermediate 32-byte buffer on the heap.
//
//ckptlint:noalloc
func SumPair(left, right Digest, seed uint32) Digest {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:8], left.H1)
	binary.LittleEndian.PutUint64(buf[8:16], left.H2)
	binary.LittleEndian.PutUint64(buf[16:24], right.H1)
	binary.LittleEndian.PutUint64(buf[24:32], right.H2)
	return Sum128(buf[:], seed)
}
