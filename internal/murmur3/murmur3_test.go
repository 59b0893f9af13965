package murmur3

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference vectors for MurmurHash3 x64 128 with seed 0, cross-checked
// against Austin Appleby's reference implementation.
var refVectors = []struct {
	in     string
	h1, h2 uint64
}{
	{"", 0x0000000000000000, 0x0000000000000000},
	{"hello", 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
	{"hello, world", 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
}

func TestReferenceVectors(t *testing.T) {
	for _, v := range refVectors {
		got := Sum128([]byte(v.in), 0)
		if got.H1 != v.h1 || got.H2 != v.h2 {
			t.Errorf("Sum128(%q) = %#x,%#x; want %#x,%#x", v.in, got.H1, got.H2, v.h1, v.h2)
		}
	}
}

func TestSeedChangesDigest(t *testing.T) {
	data := []byte("checkpoint chunk")
	a := Sum128(data, 0)
	b := Sum128(data, 1)
	if a == b {
		t.Fatalf("different seeds produced identical digests: %v", a)
	}
}

func TestAllTailLengths(t *testing.T) {
	// Exercise every tail-switch arm (lengths 0..48 cover 0..15 mod 16
	// with zero, one and more blocks) and check digests are pairwise
	// distinct for distinct prefixes of a fixed pattern.
	base := make([]byte, 48)
	for i := range base {
		base[i] = byte(i*37 + 11)
	}
	seen := make(map[Digest]int)
	for n := 0; n <= len(base); n++ {
		d := Sum128(base[:n], 7)
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision between lengths %d and %d", prev, n)
		}
		seen[d] = n
	}
}

func TestDeterminism(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		return Sum128(data, seed) == Sum128(data, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(h1, h2 uint64) bool {
		d := Digest{H1: h1, H2: h2}
		return FromBytes(d.Bytes()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping any single bit of a 64-byte chunk must change the digest.
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	orig := Sum128(data, 0)
	for byteIdx := 0; byteIdx < len(data); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			data[byteIdx] ^= 1 << bit
			if Sum128(data, 0) == orig {
				t.Fatalf("bit flip at byte %d bit %d left digest unchanged", byteIdx, bit)
			}
			data[byteIdx] ^= 1 << bit
		}
	}
}

func TestSumPairMatchesConcat(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64, seed uint32) bool {
		l := Digest{a1, a2}
		r := Digest{b1, b2}
		lb := l.Bytes()
		rb := r.Bytes()
		concat := append(lb[:], rb[:]...)
		return SumPair(l, r, seed) == Sum128(concat, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsZero(t *testing.T) {
	if !(Digest{}).IsZero() {
		t.Error("zero digest not reported as zero")
	}
	if (Digest{H1: 1}).IsZero() || (Digest{H2: 1}).IsZero() {
		t.Error("non-zero digest reported as zero")
	}
}

func TestZeroFilledChunksDiffer(t *testing.T) {
	// Chunks of different lengths but identical (zero) content must
	// still hash differently: length is folded into the finalizer.
	a := Sum128(make([]byte, 32), 0)
	b := Sum128(make([]byte, 64), 0)
	if a == b {
		t.Fatal("zero chunks of different lengths collided")
	}
}

func BenchmarkSum128(b *testing.B) {
	for _, size := range []int{32, 64, 128, 256, 512, 4096} {
		data := bytes.Repeat([]byte{0xa5}, size)
		b.Run(byteSizeName(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				_ = Sum128(data, 0)
			}
		})
	}
}

func BenchmarkSum128x2(b *testing.B) {
	for _, size := range []int{32, 64, 128, 256, 512, 4096} {
		data := bytes.Repeat([]byte{0xa5}, 2*size)
		b.Run(byteSizeName(size), func(b *testing.B) {
			b.SetBytes(int64(2 * size))
			for i := 0; i < b.N; i++ {
				_, _ = Sum128x2(data[:size], data[size:], 0)
			}
		})
	}
}

// kernelLengths are the message lengths Sum128x2 has a fixed kernel
// for.
var kernelLengths = []int{32, 64, 128, 256, 512}

// TestSum128x2MatchesSum128 is the differential test of the paired
// hash: every pair of lengths around the block and tail boundaries and
// the kernel lengths, equal and unequal, must give exactly the two
// single digests.
func TestSum128x2MatchesSum128(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 2*600)
	rng.Read(buf)
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 47, 121, 600}
	for _, n := range kernelLengths {
		lengths = append(lengths, n-16, n-1, n, n+1, n+16)
	}
	for _, la := range lengths {
		for _, lb := range lengths {
			a, b := buf[:la], buf[600:600+lb]
			seed := uint32(la*31 + lb)
			da, db := Sum128x2(a, b, seed)
			if da != Sum128(a, seed) || db != Sum128(b, seed) {
				t.Fatalf("Sum128x2(len %d, len %d, seed %d) differs from Sum128", la, lb, seed)
			}
		}
	}
}

// FuzzSum128x2 checks the paired hash against Sum128 on arbitrary
// message pairs, and again on both cut to the longest kernel length
// they reach, so the fuzzer exercises the fixed kernels whatever
// lengths it draws.
func FuzzSum128x2(f *testing.F) {
	f.Add([]byte(""), []byte("a"), uint32(0))
	f.Add(bytes.Repeat([]byte{1}, 128), bytes.Repeat([]byte{2}, 121), uint32(42))
	f.Add(bytes.Repeat([]byte{3}, 17), bytes.Repeat([]byte{4}, 64), uint32(1<<31))
	for i, n := range kernelLengths {
		f.Add(bytes.Repeat([]byte{byte(5 + i)}, n), bytes.Repeat([]byte{byte(10 + i)}, n), uint32(n))
	}
	f.Fuzz(func(t *testing.T, a, b []byte, seed uint32) {
		check := func(a, b []byte) {
			da, db := Sum128x2(a, b, seed)
			if da != Sum128(a, seed) || db != Sum128(b, seed) {
				t.Fatalf("Sum128x2(%x, %x, %d) differs from Sum128", a, b, seed)
			}
		}
		check(a, b)
		for i := len(kernelLengths) - 1; i >= 0; i-- {
			if n := kernelLengths[i]; len(a) >= n && len(b) >= n {
				check(a[:n], b[len(b)-n:])
				break
			}
		}
	})
}

func byteSizeName(n int) string {
	switch {
	case n >= 1024:
		return string(rune('0'+n/1024)) + "KiB"
	default:
		digits := [4]byte{}
		i := len(digits)
		for n > 0 {
			i--
			digits[i] = byte('0' + n%10)
			n /= 10
		}
		return string(digits[i:]) + "B"
	}
}
