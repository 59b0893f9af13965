package murmur3

import (
	"bytes"
	"math/rand"
	"testing"
)

// eachPath runs f once per Sum128x8 path this host can run — the four
// Sum128x2 calls, then the AVX-512 kernel where the CPU has it —
// flipping the dispatch switch and restoring it after.
func eachPath(tb testing.TB, f func(path string)) {
	tb.Helper()
	detected := useAVX512
	defer func() { useAVX512 = detected }()
	useAVX512 = false
	f("portable")
	if detected {
		useAVX512 = true
		f("avx512")
	}
}

// sum128x8Ref is Sum128x8 by its definition: eight Sum128 calls.
func sum128x8Ref(data []byte, n int, seed uint32) (out [8]Digest) {
	for i := range out {
		out[i] = Sum128(data[i*n:(i+1)*n], seed)
	}
	return out
}

// TestSum128x8MatchesSum128 is the differential test of the eight-way
// hash on both paths: every length from 16 to 4096 in steps of 16 (the
// kernel's lengths), lengths that are not a multiple of 16 (the
// portable path's), bases at every alignment mod 8 and random seeds
// must give exactly eight Sum128 digests.
func TestSum128x8MatchesSum128(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, 8*4096+8)
	rng.Read(buf)
	lengths := []int{0, 1, 7, 8, 15, 17, 31, 33, 100, 121, 127, 129, 255, 1000, 4095}
	for n := 16; n <= 4096; n += 16 {
		lengths = append(lengths, n)
	}
	var ran []string
	eachPath(t, func(path string) {
		ran = append(ran, path)
		for i, n := range lengths {
			base := i % 8
			seed := rng.Uint32()
			data := buf[base : base+8*n]
			var got [8]Digest
			if Sum128x8(&got, data, n, seed); got != sum128x8Ref(data, n, seed) {
				t.Fatalf("%s: Sum128x8(len %d, base %d, seed %d) differs from Sum128", path, n, base, seed)
			}
		}
	})
	t.Logf("Sum128x8 paths run: %v", ran)
}

// TestSum128x8ShortDataPanics: data shorter than eight messages is a
// caller bug, not something to hash past the end of.
func TestSum128x8ShortDataPanics(t *testing.T) {
	eachPath(t, func(path string) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Sum128x8 over 8·16−1 bytes did not panic", path)
			}
		}()
		buf := make([]byte, 8*16, 8*32)
		var out [8]Digest
		Sum128x8(&out, buf[:8*16-1], 16, 0)
	})
}

// FuzzSum128x8 checks the eight-way hash against eight Sum128 calls on
// both paths, for a length drawn from the input and for that length
// rounded down to a multiple of 16, so the fuzzer reaches the kernel
// whatever it draws.
func FuzzSum128x8(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1}, 8*128), uint16(128), uint32(0))
	f.Add(bytes.Repeat([]byte{2}, 8*121), uint16(121), uint32(42))
	f.Add([]byte("abcdefgh"), uint16(1), uint32(1<<31))
	f.Add([]byte{}, uint16(0), uint32(7))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, seed uint32) {
		eachPath(t, func(path string) {
			for _, m := range []int{int(n) % (len(data)/8 + 1), int(n) % (len(data)/8 + 1) &^ 15} {
				var got [8]Digest
				if Sum128x8(&got, data, m, seed); got != sum128x8Ref(data, m, seed) {
					t.Fatalf("%s: Sum128x8(%x, %d, %d) differs from Sum128", path, data, m, seed)
				}
			}
		})
	})
}

func BenchmarkSum128x8(b *testing.B) {
	for _, size := range []int{32, 64, 128, 256, 512, 4096} {
		data := bytes.Repeat([]byte{0xa5}, 8*size)
		b.Run(byteSizeName(size), func(b *testing.B) {
			b.SetBytes(int64(8 * size))
			var out [8]Digest
			for i := 0; i < b.N; i++ {
				Sum128x8(&out, data, size, 0)
			}
		})
	}
}
