#include "textflag.h"

// The multipliers and addends of the block mix and of fmix64, one
// quadword each, broadcast to every lane at kernel entry.
DATA x8consts<>+0(SB)/8, $0x87c37b91114253d5  // c1
DATA x8consts<>+8(SB)/8, $0x4cf5ad432745937f  // c2
DATA x8consts<>+16(SB)/8, $0x52dce729         // h1 addend
DATA x8consts<>+24(SB)/8, $0x38495ab5         // h2 addend
DATA x8consts<>+32(SB)/8, $0xff51afd7ed558ccd // fmix64, first multiplier
DATA x8consts<>+40(SB)/8, $0xc4ceb9fe1a85ec53 // fmix64, second multiplier
GLOBL x8consts<>(SB), RODATA|NOPTR, $48

// FMIX64 finalizes the eight lanes of z; t is clobbered.
#define FMIX64(z, t) \
	VPSRLQ  $33, z, t; \
	VPXORQ  t, z, z;   \
	VPMULLQ Z20, z, z; \
	VPSRLQ  $33, z, t; \
	VPXORQ  t, z, z;   \
	VPMULLQ Z21, z, z; \
	VPSRLQ  $33, z, t; \
	VPXORQ  t, z, z

// func sum128x8(out *[8]Digest, data *byte, n uint64, seed uint64)
//
// Lane i of Z0 (h1) and Z1 (h2) runs the chain of one message. Each
// 16-byte block of messages 0-3 is gathered into Z2 and of messages
// 4-7 into Z3, one message per 128-bit lane; the quadword unpacks
// then give k1 and k2 of all eight in the lane order 0,4,1,5,2,6,3,7,
// which the unpacks at the end turn back into digests 0-3 and 4-7.
// Each block also prefetches 128 bytes, from 1 KiB past the end of
// the eight messages on: the leaf sweep walks a buffer larger than the
// caches group by group, and the prefetches keep the groups it hashes
// next on their way from memory. A prefetch past the end of the buffer
// is a hint and cannot fault.
// Only VEX and EVEX encodings: a legacy-SSE instruction here would
// cost an AVX state transition on every call.
TEXT ·sum128x8(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), AX
	MOVQ data+8(FP), SI
	MOVQ n+16(FP), DX
	VPBROADCASTQ seed+24(FP), Z0
	VPBROADCASTQ seed+24(FP), Z1
	VPBROADCASTQ x8consts<>+0(SB), Z16
	VPBROADCASTQ x8consts<>+8(SB), Z17
	VPBROADCASTQ x8consts<>+16(SB), Z18
	VPBROADCASTQ x8consts<>+24(SB), Z19
	VPBROADCASTQ x8consts<>+32(SB), Z20
	VPBROADCASTQ x8consts<>+40(SB), Z21
	LEAQ (DX)(DX*2), BX // 3n
	LEAQ (SI)(DX*4), DI // message 4
	LEAQ 1024(DI)(DX*4), R8 // the prefetch cursor
	MOVQ DX, CX
	SHRQ $4, CX         // blocks per message
	JZ   final

block:
	PREFETCHT0   (R8)
	PREFETCHT0   64(R8)
	ADDQ         $128, R8
	VMOVDQU      (SI), X2
	VINSERTI64X2 $1, (SI)(DX*1), Z2, Z2
	VINSERTI64X2 $2, (SI)(DX*2), Z2, Z2
	VINSERTI64X2 $3, (SI)(BX*1), Z2, Z2
	VMOVDQU      (DI), X3
	VINSERTI64X2 $1, (DI)(DX*1), Z3, Z3
	VINSERTI64X2 $2, (DI)(DX*2), Z3, Z3
	VINSERTI64X2 $3, (DI)(BX*1), Z3, Z3
	VPUNPCKLQDQ  Z3, Z2, Z4 // k1
	VPUNPCKHQDQ  Z3, Z2, Z5 // k2

	// k1 = rotl(k1*c1, 31)*c2; h1 = (rotl(h1^k1, 27)+h2)*5 + 0x52dce729
	VPMULLQ Z16, Z4, Z4
	VPROLQ  $31, Z4, Z4
	VPMULLQ Z17, Z4, Z4
	VPXORQ  Z4, Z0, Z0
	VPROLQ  $27, Z0, Z0
	VPADDQ  Z1, Z0, Z0
	VPSLLQ  $2, Z0, Z6
	VPADDQ  Z6, Z0, Z0
	VPADDQ  Z18, Z0, Z0

	// k2 = rotl(k2*c2, 33)*c1; h2 = (rotl(h2^k2, 31)+h1)*5 + 0x38495ab5
	VPMULLQ Z17, Z5, Z5
	VPROLQ  $33, Z5, Z5
	VPMULLQ Z16, Z5, Z5
	VPXORQ  Z5, Z1, Z1
	VPROLQ  $31, Z1, Z1
	VPADDQ  Z0, Z1, Z1
	VPSLLQ  $2, Z1, Z7
	VPADDQ  Z7, Z1, Z1
	VPADDQ  Z19, Z1, Z1

	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  block

final:
	VPBROADCASTQ n+16(FP), Z2
	VPXORQ Z2, Z0, Z0
	VPXORQ Z2, Z1, Z1
	VPADDQ Z1, Z0, Z0
	VPADDQ Z0, Z1, Z1
	FMIX64(Z0, Z6)
	FMIX64(Z1, Z7)
	VPADDQ Z1, Z0, Z0
	VPADDQ Z0, Z1, Z1
	VPUNPCKLQDQ Z1, Z0, Z2 // digests 0-3
	VPUNPCKHQDQ Z1, Z0, Z3 // digests 4-7
	VMOVDQU64 Z2, (AX)
	VMOVDQU64 Z3, 64(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
