package murmur3

import "testing"

// TestSum128ZeroAlloc pins the zero-allocation property of the digest
// path for the chunk sizes the dedup pipeline actually hashes (§3.3
// sweeps 32 B–512 B; 4 KiB covers coarse-grained configurations).
// Hashing is the single hottest operation in Algorithm 1, so an escape
// here would dominate every checkpoint.
func TestSum128ZeroAlloc(t *testing.T) {
	for _, size := range []int{32, 64, 128, 256, 512, 1024, 4096} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 31)
		}
		var sink Digest
		avg := testing.AllocsPerRun(100, func() {
			sink = Sum128(data, 42)
		})
		if avg != 0 {
			t.Errorf("Sum128(%d bytes): %.2f allocs per run, want 0", size, avg)
		}
		if sink.IsZero() {
			t.Errorf("Sum128(%d bytes): zero digest", size)
		}
	}
}

// TestSum128x2ZeroAlloc covers the paired leaf hash of the sweep: the
// fixed kernel of every kernel length, and the generic loop.
func TestSum128x2ZeroAlloc(t *testing.T) {
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, n := range append(kernelLengths, 121) {
		var a, b Digest
		avg := testing.AllocsPerRun(100, func() {
			a, b = Sum128x2(data[:n], data[512:512+n], 42)
		})
		if avg != 0 {
			t.Errorf("Sum128x2(%d bytes): %.2f allocs per run, want 0", n, avg)
		}
		if a.IsZero() || b.IsZero() {
			t.Errorf("Sum128x2(%d bytes): zero digest", n)
		}
	}
}

// TestSumPairZeroAlloc covers the interior-node combine used by the
// bottom-up consolidation sweeps.
func TestSumPairZeroAlloc(t *testing.T) {
	left := Sum128([]byte("left"), 1)
	right := Sum128([]byte("right"), 1)
	var sink Digest
	avg := testing.AllocsPerRun(100, func() {
		sink = SumPair(left, right, 42)
	})
	if avg != 0 {
		t.Errorf("SumPair: %.2f allocs per run, want 0", avg)
	}
	if sink.IsZero() {
		t.Error("SumPair: zero digest")
	}
}

// TestDigestBytesZeroAlloc covers the fixed-size conversion helpers.
func TestDigestBytesZeroAlloc(t *testing.T) {
	d := Sum128([]byte("digest"), 7)
	var sink Digest
	avg := testing.AllocsPerRun(100, func() {
		sink = FromBytes(d.Bytes())
	})
	if avg != 0 {
		t.Errorf("Bytes/FromBytes: %.2f allocs per run, want 0", avg)
	}
	if sink != d {
		t.Error("Bytes/FromBytes round trip mismatch")
	}
}

// TestSum128x8ZeroAlloc covers the eight-way leaf hash on both paths:
// the kernel's lengths, and one the portable path alone takes.
func TestSum128x8ZeroAlloc(t *testing.T) {
	data := make([]byte, 8*512)
	for i := range data {
		data[i] = byte(i * 31)
	}
	eachPath(t, func(path string) {
		for _, n := range append(kernelLengths, 121) {
			var out [8]Digest
			avg := testing.AllocsPerRun(100, func() {
				Sum128x8(&out, data, n, 42)
			})
			if avg != 0 {
				t.Errorf("%s: Sum128x8(%d bytes): %.2f allocs per run, want 0", path, n, avg)
			}
			if out[7].IsZero() {
				t.Errorf("%s: Sum128x8(%d bytes): zero digest", path, n)
			}
		}
	})
}
