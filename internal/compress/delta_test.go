package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// deltaWrap is a delta-packed layout declaring 2^62+1 words and no tail:
// times 4 the count wraps to 4.
var deltaWrap = append(binary.AppendUvarint(nil, 1<<62+1), 0, 0)

// checkDeltaRoundTrip is FuzzDeltaPack's property on one input: the
// layout restores src exactly after what dst held, DeltaPackedLen is
// its length unless it gave up, and one byte fewer or more, or a
// length off by one, fails with errPacked.
func checkDeltaRoundTrip(t *testing.T, src []byte) {
	t.Helper()
	prefix := []byte("kept")
	packed := AppendDeltaPacked(append([]byte(nil), prefix...), src)[len(prefix):]
	if n := DeltaPackedLen(src); n >= 0 && n != len(packed) {
		t.Fatalf("AppendDeltaPacked wrote %d bytes, DeltaPackedLen says %d", len(packed), n)
	}
	out, err := AppendDeltaUnpacked(append([]byte(nil), prefix...), packed, len(src))
	if err != nil || !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], src) {
		t.Fatalf("round trip of %d bytes: %v", len(src), err)
	}
	if _, err := AppendDeltaUnpacked(nil, packed, len(src)+1); !errors.Is(err, errPacked) {
		t.Fatalf("unpacked to one byte more: %v", err)
	}
	if _, err := AppendDeltaUnpacked(nil, append(packed, 0), len(src)); !errors.Is(err, errPacked) {
		t.Fatalf("a trailing byte: %v", err)
	}
	if _, err := AppendDeltaUnpacked(nil, packed[:len(packed)-1], len(src)); !errors.Is(err, errPacked) {
		t.Fatalf("a missing byte: %v", err)
	}
}

// FuzzDeltaPack checks the delta-packed layout over arbitrary input:
// every input round-trips (checkDeltaRoundTrip), and read as a layout
// of n bytes it decodes to exactly n bytes or fails with errPacked,
// without a panic and without writing into dst's capacity past them.
func FuzzDeltaPack(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(3))
	f.Add(deltaWrap, uint16(4))
	f.Add(gdvBlock(1), uint16(4096))
	f.Add(AppendDeltaPacked(nil, gdvBlock(2)), uint16(4096))
	f.Add(AppendDeltaPacked(nil, randBytes(rand.New(rand.NewSource(3)), 301)), uint16(301))
	f.Add(randBytes(rand.New(rand.NewSource(2)), 4096), uint16(4096))
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16) {
		checkDeltaRoundTrip(t, data)
		n := int(n16)
		const guard = 16
		buf := make([]byte, n+guard)
		for i := range buf {
			buf[i] = 0xa5
		}
		out, err := AppendDeltaUnpacked(buf[:0], data, n)
		if err == nil && len(out) != n || err != nil && (!errors.Is(err, errPacked) || len(out) != 0) {
			t.Fatalf("decoded %d bytes of %d: %v", len(out), n, err)
		}
		if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xa5}, guard)) {
			t.Fatalf("the decoder wrote past the %d bytes it was asked for", n)
		}
	})
}

// TestDeltaPackRefusals: the decoder refuses a word count that wraps,
// one that disagrees with the length, a nonzero padding bit, and a
// stream that ends inside a group.
func TestDeltaPackRefusals(t *testing.T) {
	if _, err := AppendDeltaUnpacked(nil, deltaWrap, 4); !errors.Is(err, errPacked) {
		t.Fatalf("a wrapping word count: %v", err)
	}
	src := gdvBlock(4)[:4*7] // seven words: the last group is short
	packed := AppendDeltaPacked(nil, src)
	if _, err := AppendDeltaUnpacked(nil, packed, len(src)-4); !errors.Is(err, errPacked) {
		t.Fatalf("a word count above the length: %v", err)
	}
	for bit := 0; bit < 8; bit++ {
		bad := append([]byte(nil), packed...)
		bad[len(bad)-1] ^= 1 << bit
		if out, err := AppendDeltaUnpacked(nil, bad, len(src)); err == nil && bytes.Equal(out, src) {
			t.Fatalf("bit %d of the last byte changes nothing, yet is accepted", bit)
		}
	}
	// A first group coded full width in a stream one byte long.
	if _, err := AppendDeltaUnpacked(nil, []byte{1, 0, 7}, 4); !errors.Is(err, errPacked) {
		t.Fatalf("a group past the stream's end: %v", err)
	}
}

// TestDeltaPackEveryWidth round-trips groups of every delta width, up
// and down, at every word count around the in-place decode's end, with
// a tail of 0 to 3 bytes, and random words.
func TestDeltaPackEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for width := 0; width <= 32; width++ {
		for _, words := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 40, 63, 64, 65, 1024} {
			src := make([]byte, words*4+width%4)
			rng.Read(src[words*4:])
			var w uint32
			for i := 0; i < words; i++ {
				d := uint32(rng.Uint64()) >> (32 - width) // up to width bits of zigzag
				if width == 0 {
					d = 0
				}
				w += unzigzag32(d)
				binary.LittleEndian.PutUint32(src[i*4:], w)
			}
			checkDeltaRoundTrip(t, src)
		}
	}
	for i := 0; i < 200; i++ {
		checkDeltaRoundTrip(t, randBytes(rng, rng.Intn(600)))
	}
}

// TestDeltaPackedLenGivesUp: on random words the length pass gives up
// after deltaGiveUp full-width groups, and blocks of small counters are
// measured whole.
func TestDeltaPackedLenGivesUp(t *testing.T) {
	if n := DeltaPackedLen(randBytes(rand.New(rand.NewSource(8)), 4096)); n != -1 {
		t.Fatalf("a random block measures %d bytes, want -1", n)
	}
	for seed := int64(0); seed < 8; seed++ {
		b := gdvBlock(seed)
		if n := DeltaPackedLen(b); n != len(AppendDeltaPacked(nil, b)) {
			t.Fatalf("GDV block %d measures %d bytes", seed, n)
		}
	}
}

// TestDeltaPackAllocs: packing into and unpacking out of memory with
// room allocate nothing.
func TestDeltaPackAllocs(t *testing.T) {
	src := gdvBlock(3)
	packed := make([]byte, 0, len(src))
	out := make([]byte, 0, len(src))
	allocs := testing.AllocsPerRun(50, func() {
		packed = AppendDeltaPacked(packed[:0], src)
		var err error
		if out, err = AppendDeltaUnpacked(out[:0], packed, len(src)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !bytes.Equal(out, src) {
		t.Fatalf("delta pack and unpack allocate %.0f times", allocs)
	}
}

func BenchmarkDeltaPackedLenRandom(b *testing.B) {
	src := randBytes(rand.New(rand.NewSource(4)), 4096)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		packedLenSink = DeltaPackedLen(src)
	}
}

func BenchmarkDeltaPackGDV(b *testing.B) {
	src := gdvBlock(5)
	packed := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		packed = AppendDeltaPacked(packed[:0], src)
	}
}

func BenchmarkDeltaUnpackGDV(b *testing.B) {
	src := gdvBlock(5)
	packed := AppendDeltaPacked(nil, src)
	out := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		out, _ = AppendDeltaUnpacked(out[:0], packed, len(src))
	}
}
