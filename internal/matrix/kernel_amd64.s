//go:build amd64

#include "textflag.h"

// func axpyPanel8AVX2(ci *float64, b *float64, ldb, n int, a *[8]float64)
//
// ci[j] += a0·b0[j] + a1·b1[j] + … + a7·b7[j], j = 0..n-1, where row t is
// b + t·ldb. The accumulation is purely element-wise — each lane carries
// one element's private chain ci[j] + a0·b0[j] + … + a7·b7[j] with the
// same left association and no fusing (VMULPD then VADDPD, never FMA) —
// so the results are bitwise identical to the pure-Go panel loop at any
// vector width. Elements go eight per iteration (two independent
// four-lane accumulators), then four-lane, two-lane and scalar tails,
// all VEX-encoded to avoid SSE/AVX transition stalls. VZEROUPPER before
// returning to Go code.
TEXT ·axpyPanel8AVX2(SB), NOSPLIT, $0-40
	// Broadcast the eight coefficients into Y0..Y7.
	MOVQ a+32(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7

	MOVQ ci+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (SI)(DX*1), R8    // row 1
	LEAQ (R8)(DX*1), R9    // row 2
	LEAQ (R9)(DX*1), R10   // row 3
	LEAQ (R10)(DX*1), R11  // row 4
	LEAQ (R11)(DX*1), R12  // row 5
	LEAQ (R12)(DX*1), R13  // row 6
	LEAQ (R13)(DX*1), AX   // row 7 (AX free after broadcasts)

	MOVQ n+24(FP), CX
	XORQ BX, BX            // byte offset
	MOVQ CX, DX
	ANDQ $-8, DX
	SHLQ $3, DX            // end offset of the 8-element loop
	CMPQ BX, DX
	JGE  avx2quadcheck

avx2octa:
	// Two independent accumulators (Y8: j..j+3, Y10: j+4..j+7).
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD 32(DI)(BX*1), Y10
	VMOVUPD (SI)(BX*1), Y9
	VMOVUPD 32(SI)(BX*1), Y11
	VMULPD Y0, Y9, Y9
	VMULPD Y0, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R8)(BX*1), Y9
	VMOVUPD 32(R8)(BX*1), Y11
	VMULPD Y1, Y9, Y9
	VMULPD Y1, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R9)(BX*1), Y9
	VMOVUPD 32(R9)(BX*1), Y11
	VMULPD Y2, Y9, Y9
	VMULPD Y2, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R10)(BX*1), Y9
	VMOVUPD 32(R10)(BX*1), Y11
	VMULPD Y3, Y9, Y9
	VMULPD Y3, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R11)(BX*1), Y9
	VMOVUPD 32(R11)(BX*1), Y11
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R12)(BX*1), Y9
	VMOVUPD 32(R12)(BX*1), Y11
	VMULPD Y5, Y9, Y9
	VMULPD Y5, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R13)(BX*1), Y9
	VMOVUPD 32(R13)(BX*1), Y11
	VMULPD Y6, Y9, Y9
	VMULPD Y6, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (AX)(BX*1), Y9
	VMOVUPD 32(AX)(BX*1), Y11
	VMULPD Y7, Y9, Y9
	VMULPD Y7, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD Y8, (DI)(BX*1)
	VMOVUPD Y10, 32(DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, DX
	JL   avx2octa

avx2quadcheck:
	TESTQ $4, CX
	JZ   avx2paircheck
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD (SI)(BX*1), Y9
	VMULPD Y0, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R8)(BX*1), Y9
	VMULPD Y1, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R9)(BX*1), Y9
	VMULPD Y2, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R10)(BX*1), Y9
	VMULPD Y3, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R11)(BX*1), Y9
	VMULPD Y4, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R12)(BX*1), Y9
	VMULPD Y5, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R13)(BX*1), Y9
	VMULPD Y6, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (AX)(BX*1), Y9
	VMULPD Y7, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD Y8, (DI)(BX*1)
	ADDQ $32, BX

avx2paircheck:
	TESTQ $2, CX
	JZ   avx2scalarcheck
	VMOVUPD (DI)(BX*1), X8
	VMOVUPD (SI)(BX*1), X9
	VMULPD X0, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R8)(BX*1), X9
	VMULPD X1, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R9)(BX*1), X9
	VMULPD X2, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R10)(BX*1), X9
	VMULPD X3, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R11)(BX*1), X9
	VMULPD X4, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R12)(BX*1), X9
	VMULPD X5, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R13)(BX*1), X9
	VMULPD X6, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (AX)(BX*1), X9
	VMULPD X7, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD X8, (DI)(BX*1)
	ADDQ $16, BX

avx2scalarcheck:
	TESTQ $1, CX
	JZ   avx2done
	VMOVSD (DI)(BX*1), X8
	VMOVSD (SI)(BX*1), X9
	VMULSD X0, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R8)(BX*1), X9
	VMULSD X1, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R9)(BX*1), X9
	VMULSD X2, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R10)(BX*1), X9
	VMULSD X3, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R11)(BX*1), X9
	VMULSD X4, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R12)(BX*1), X9
	VMULSD X5, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R13)(BX*1), X9
	VMULSD X6, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (AX)(BX*1), X9
	VMULSD X7, X9, X9
	VADDSD X9, X8, X8
	VMOVSD X8, (DI)(BX*1)

avx2done:
	VZEROUPPER
	RET

// func elimRowAVX2(dst, src *float64, n int, m float64)
//
// dst[j] -= m·src[j], j = 0..n-1. Element-wise VMULPD then VSUBPD, never
// fused, with no accumulator, so the vector width cannot change bits
// relative to the Go loop. Eight elements per iteration, then four-lane,
// two-lane and scalar tails. VZEROUPPER on exit.
TEXT ·elimRowAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD m+24(FP), Y0
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX
	SHLQ $3, DX
	CMPQ BX, DX
	JGE  velimquad

velimocta:
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD 32(SI)(BX*1), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMOVUPD (DI)(BX*1), Y3
	VMOVUPD 32(DI)(BX*1), Y4
	VSUBPD Y1, Y3, Y3
	VSUBPD Y2, Y4, Y4
	VMOVUPD Y3, (DI)(BX*1)
	VMOVUPD Y4, 32(DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, DX
	JL   velimocta

velimquad:
	TESTQ $4, CX
	JZ   velimpair
	VMOVUPD (SI)(BX*1), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD (DI)(BX*1), Y3
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y3, (DI)(BX*1)
	ADDQ $32, BX

velimpair:
	TESTQ $2, CX
	JZ   velimscalar
	VMOVUPD (SI)(BX*1), X1
	VMULPD X0, X1, X1
	VMOVUPD (DI)(BX*1), X3
	VSUBPD X1, X3, X3
	VMOVUPD X3, (DI)(BX*1)
	ADDQ $16, BX

velimscalar:
	TESTQ $1, CX
	JZ   velimdone
	VMOVSD (SI)(BX*1), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(BX*1), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)(BX*1)

velimdone:
	VZEROUPPER
	RET

// func fwdStep8AVX2(x, row *float64, cnt int)
//
// One forward-substitution row for eight interleaved columns:
// acc[c] = Σ_t row[t]·x[t·8+c], then x[cnt·8+c] -= acc[c]. The eight
// accumulator lanes live in Y0 and Y1; each lane chains its adds in t
// order from +0 (VMULPD then VADDPD per term) exactly like fwdStep8Go,
// so bits match. VZEROUPPER on exit.
TEXT ·fwdStep8AVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ cnt+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ CX, CX
	JZ   vfwdfinal

vfwdloop:
	VBROADCASTSD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD Y2, Y3, Y3
	VADDPD Y3, Y0, Y0
	VMOVUPD 32(DI), Y4
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  vfwdloop

vfwdfinal:
	// DI now points at x[cnt·8], the row being eliminated.
	VMOVUPD (DI), Y3
	VSUBPD Y0, Y3, Y3
	VMOVUPD Y3, (DI)
	VMOVUPD 32(DI), Y4
	VSUBPD Y1, Y4, Y4
	VMOVUPD Y4, 32(DI)
	VZEROUPPER
	RET

// func backStep8AVX2(x, row *float64, cnt int, d float64)
//
// One back-substitution row for eight interleaved columns:
// acc[c] = Σ_t row[t]·x[(t+1)·8+c], then x[c] = (x[c] − acc[c]) / d.
// Lane discipline as in fwdStep8AVX2; the divide is element-wise.
// VZEROUPPER on exit.
TEXT ·backStep8AVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ cnt+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ $64, BX
	TESTQ CX, CX
	JZ   vbackfinal

vbackloop:
	VBROADCASTSD (SI), Y2
	VMOVUPD (DI)(BX*1), Y3
	VMULPD Y2, Y3, Y3
	VADDPD Y3, Y0, Y0
	VMOVUPD 32(DI)(BX*1), Y4
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $8, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  vbackloop

vbackfinal:
	VBROADCASTSD d+24(FP), Y5
	VMOVUPD (DI), Y3
	VSUBPD Y0, Y3, Y3
	VDIVPD Y5, Y3, Y3
	VMOVUPD Y3, (DI)
	VMOVUPD 32(DI), Y4
	VSUBPD Y1, Y4, Y4
	VDIVPD Y5, Y4, Y4
	VMOVUPD Y4, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
