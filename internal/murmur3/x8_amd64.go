package murmur3

// useAVX512 selects the AVX-512 kernel of Sum128x8. It is set once, at
// package init, and flipped only by tests.
var useAVX512 = hasAVX512()

// hasAVX512 reports whether the CPU has AVX512F and AVX512DQ (the
// 64-bit lane multiply) and the OS saves the zmm and opmask state.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0: the SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq) == avx512f|avx512dq
}

// sum128x8 hashes the eight consecutive n-byte messages at data, n a
// multiple of 16, into out. It needs AVX512F and AVX512DQ.
//
//go:noescape
func sum128x8(out *[8]Digest, data *byte, n uint64, seed uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
