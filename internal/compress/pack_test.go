package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// wrapPayload is a Bitcomp payload declaring 2^62+1 words and no tail:
// times 4 the count wraps to 4, which once passed a dstLen of 4 and
// then indexed past the output.
var wrapPayload = append(binary.AppendUvarint(nil, 1<<62+1), 0, 0)

// TestDecompressWrappedWordCount: a word count whose byte length
// overflows is refused by both word codecs, not decoded into a panic.
func TestDecompressWrappedWordCount(t *testing.T) {
	for _, c := range []Codec{NewBitcomp(), NewCascaded()} {
		if out, err := c.Decompress(wrapPayload, 4); err == nil {
			t.Fatalf("%s: decoded %d bytes from a wrapping word count", c.Name(), len(out))
		}
	}
}

// FuzzDecompress runs every codec's decoder over arbitrary input: it
// returns exactly dstLen bytes or an error, and never panics. Each
// decoder is the first thing a diff's data section meets when a record
// is read, so this is an untrusted-input surface.
func FuzzDecompress(f *testing.F) {
	f.Add(wrapPayload, int32(4))
	f.Add([]byte{0xff, 0xff, 0xff}, int32(1000))
	f.Add([]byte{}, int32(-1))
	for _, c := range Registry() {
		src := smallCounters(rand.New(rand.NewSource(1)), 300)
		comp, err := c.Compress(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, int32(len(src)))
	}
	f.Fuzz(func(t *testing.T, src []byte, dstLen int32) {
		n := int(dstLen % (1 << 20)) // a decoder may allocate dstLen
		for _, c := range Registry() {
			out, err := c.Decompress(src, n)
			if err == nil && len(out) != n {
				t.Fatalf("%s: decoded %d bytes, want %d", c.Name(), len(out), n)
			}
		}
	})
}

// gdvBlock is a 4 KiB block shaped like a sparse GDV: mostly zero words,
// a few counters under 32.
func gdvBlock(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 4096)
	for i := 0; i < len(b); i += 4 {
		if rng.Intn(4) == 0 {
			binary.LittleEndian.PutUint32(b[i:], uint32(rng.Intn(32)))
		}
	}
	return b
}

// FuzzPack checks the layout over arbitrary input: PackedLen is the
// length AppendPacked appends, what it appends is what the Bitcomp codec
// compresses to, and AppendUnpacked restores the input exactly, after
// what dst already held; one byte fewer or more fails with errPacked.
func FuzzPack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(gdvBlock(1))
	f.Add(randBytes(rand.New(rand.NewSource(2)), 4096))
	f.Fuzz(func(t *testing.T, src []byte) {
		prefix := []byte("kept")
		packed := AppendPacked(append([]byte(nil), prefix...), src)[len(prefix):]
		if len(packed) != PackedLen(src) {
			t.Fatalf("AppendPacked wrote %d bytes, PackedLen says %d", len(packed), PackedLen(src))
		}
		if comp, _ := NewBitcomp().Compress(src); !bytes.Equal(comp, packed) {
			t.Fatal("the codec and AppendPacked disagree")
		}
		out, err := AppendUnpacked(append([]byte(nil), prefix...), packed, len(src))
		if err != nil || !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], src) {
			t.Fatalf("round trip: %v", err)
		}
		if _, err := AppendUnpacked(nil, packed, len(src)+1); !errors.Is(err, errPacked) {
			t.Fatalf("unpacked to one byte more: %v", err)
		}
		if _, err := AppendUnpacked(nil, append(packed, 0), len(src)); !errors.Is(err, errPacked) {
			t.Fatalf("a trailing byte: %v", err)
		}
		if len(packed) > 0 {
			if _, err := AppendUnpacked(nil, packed[:len(packed)-1], len(src)); !errors.Is(err, errPacked) {
				t.Fatalf("a missing byte: %v", err)
			}
		}
	})
}

// TestPackEveryWidth round-trips groups of every bit width, full and
// cut short at every word count that ends a fast eight-word step or
// falls between two, with a tail of 0 to 3 bytes.
func TestPackEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for width := 0; width <= 32; width++ {
		for _, words := range []int{1, 7, 8, 9, 15, 16, 17, 255, 256, 257, 300, 1024} {
			src := make([]byte, words*4+width%4)
			rng.Read(src[words*4:])
			for i := 0; i < words; i++ {
				v := uint32(rng.Uint64()) >> (32 - width) // width bits, top one set at times
				binary.LittleEndian.PutUint32(src[i*4:], v)
			}
			packed := AppendPacked(nil, src)
			out, err := AppendUnpacked(nil, packed, len(src))
			if err != nil || !bytes.Equal(out, src) || len(packed) != PackedLen(src) {
				t.Fatalf("width %d, %d words: round trip %v", width, words, err)
			}
		}
	}
}

// TestPackGDVBlocks: GDV-shaped blocks pack to under a fifth of their
// size, and random ones do not pack at all.
func TestPackGDVBlocks(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		if b := gdvBlock(seed); PackedLen(b)*5 > len(b) {
			t.Fatalf("GDV block %d packs to %d of %d bytes", seed, PackedLen(b), len(b))
		}
		if b := randBytes(rand.New(rand.NewSource(seed)), 4096); PackedLen(b) < len(b) {
			t.Fatalf("random block %d packs to %d of %d bytes", seed, PackedLen(b), len(b))
		}
	}
}

// TestPackAllocs: packing into and unpacking out of memory with room
// allocate nothing.
func TestPackAllocs(t *testing.T) {
	src := gdvBlock(3)
	packed := make([]byte, 0, len(src))
	out := make([]byte, 0, len(src))
	allocs := testing.AllocsPerRun(50, func() {
		packed = AppendPacked(packed[:0], src)
		var err error
		if out, err = AppendUnpacked(out[:0], packed, len(src)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !bytes.Equal(out, src) {
		t.Fatalf("pack and unpack allocate %.0f times", allocs)
	}
}

var packedLenSink int

func BenchmarkPackedLenRandom(b *testing.B) {
	src := randBytes(rand.New(rand.NewSource(4)), 4096)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		packedLenSink = PackedLen(src)
	}
}

func BenchmarkPackGDV(b *testing.B) {
	src := gdvBlock(5)
	packed := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		packed = AppendPacked(packed[:0], src)
	}
}

func BenchmarkUnpackGDV(b *testing.B) {
	src := gdvBlock(5)
	packed := AppendPacked(nil, src)
	out := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		out, _ = AppendUnpacked(out[:0], packed, len(src))
	}
}
