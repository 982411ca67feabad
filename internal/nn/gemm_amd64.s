//go:build amd64

#include "textflag.h"

// func gemmKernel4x4(k int, a *float32, lda int, panel *float32, c *float32, ldc int)
//
// 4×4 SSE micro-kernel for gemmNTPanel. X0–X3 hold the four C rows of the
// output block; per contraction step t one MOVUPS fetches the four packed B
// values (panel is k-major) and each A element is broadcast with
// MOVSS+SHUFPS, multiplied (MULPS), then accumulated (ADDPS) — the same
// round-to-nearest multiply-then-add as the scalar kernel, lane by lane, in
// strictly ascending t. SSE1/SSE2 only; valid at any GOAMD64 level. It is
// the fallback for amd64 CPUs without AVX2.
//
// The dispatcher guarantees k ≥ 1.
TEXT ·gemmKernel4x4(SB), NOSPLIT, $0-48
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	LEAQ (SI)(R8*4), R10   // a row 1
	LEAQ (R10)(R8*4), R11  // a row 2
	LEAQ (R11)(R8*4), R12  // a row 3
	MOVQ panel+24(FP), DX
	MOVQ k+0(FP), CX

	XORPS X0, X0 // C row 0 accumulators
	XORPS X1, X1 // C row 1
	XORPS X2, X2 // C row 2
	XORPS X3, X3 // C row 3
	XORQ  BX, BX // byte offset into the A rows

loop:
	MOVUPS (DX), X4        // B[0..3][t]

	MOVSS  (SI)(BX*1), X5  // a[0][t]
	SHUFPS $0x00, X5, X5
	MULPS  X4, X5
	ADDPS  X5, X0

	MOVSS  (R10)(BX*1), X6 // a[1][t]
	SHUFPS $0x00, X6, X6
	MULPS  X4, X6
	ADDPS  X6, X1

	MOVSS  (R11)(BX*1), X7 // a[2][t]
	SHUFPS $0x00, X7, X7
	MULPS  X4, X7
	ADDPS  X7, X2

	MOVSS  (R12)(BX*1), X8 // a[3][t]
	SHUFPS $0x00, X8, X8
	MULPS  X4, X8
	ADDPS  X8, X3

	ADDQ $16, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  loop

	MOVQ   c+32(FP), DI
	MOVQ   ldc+40(FP), R9
	MOVUPS X0, (DI)
	LEAQ   (DI)(R9*4), DI
	MOVUPS X1, (DI)
	LEAQ   (DI)(R9*4), DI
	MOVUPS X2, (DI)
	LEAQ   (DI)(R9*4), DI
	MOVUPS X3, (DI)
	RET

// func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int)
//
// 4×8 AVX2 micro-kernel for gemmNTPanel8. Y0–Y3 hold the four C rows of
// the output block; per contraction step t one VMOVUPS fetches the eight
// packed B values (panel is k-major) and each A element is broadcast
// (VBROADCASTSS), multiplied (VMULPS), then accumulated (VADDPS). No FMA:
// every lane rounds the product before the add, exactly like the scalar
// and SSE kernels, in strictly ascending t.
//
// The dispatcher guarantees k ≥ 1; callers check haveAVX2.
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-48
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	LEAQ (SI)(R8*4), R10   // a row 1
	LEAQ (R10)(R8*4), R11  // a row 2
	LEAQ (R11)(R8*4), R12  // a row 3
	MOVQ panel+24(FP), DX
	MOVQ k+0(FP), CX

	VXORPS Y0, Y0, Y0 // C row 0 accumulators
	VXORPS Y1, Y1, Y1 // C row 1
	VXORPS Y2, Y2, Y2 // C row 2
	VXORPS Y3, Y3, Y3 // C row 3
	XORQ   BX, BX     // byte offset into the A rows

loop8:
	VMOVUPS (DX), Y4 // B[0..7][t]

	VBROADCASTSS (SI)(BX*1), Y5 // a[0][t]
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0

	VBROADCASTSS (R10)(BX*1), Y6 // a[1][t]
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1

	VBROADCASTSS (R11)(BX*1), Y7 // a[2][t]
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2

	VBROADCASTSS (R12)(BX*1), Y8 // a[3][t]
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

	ADDQ $32, DX
	ADDQ $4, BX
	DECQ CX
	JNZ  loop8

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), R9
	VMOVUPS Y0, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Y1, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Y2, (DI)
	LEAQ    (DI)(R9*4), DI
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func tanhF32BiasAVX2(row, b *float32, n int, consts *[tanhF32NumConsts][8]float32)
//
// Eight lanes of row[c] = tanhF32(row[c] + b[c]) per iteration. consts rows
// (32 bytes each, see tanhF32Lanes): clamp, -clamp, a13 a11 a9 a7 a5 a3 a1,
// b6 b4 b2 b0. The operations and their order are tanhF32's: the add, the
// clamp, x², the two Horner chains (multiply, then add the next
// coefficient), p·x, and one division. The clamp is VMINPS(clamp, x) then
// VMAXPS(-clamp, x): with x as the second source a NaN lane passes through
// unchanged, as it does through tanhF32's comparisons.
//
// n is a positive multiple of 8; callers check haveAVX2.
TEXT ·tanhF32BiasAVX2(SB), NOSPLIT, $0-32
	MOVQ    row+0(FP), DI
	MOVQ    b+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    consts+24(FP), DX
	VMOVUPS 0(DX), Y14  // clamp
	VMOVUPS 32(DX), Y15 // -clamp
	SHRQ    $3, CX

tanhloop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0 // x = row + b
	VMINPS  Y0, Y14, Y0  // x > clamp → clamp
	VMAXPS  Y0, Y15, Y0  // x < -clamp → -clamp
	VMULPS  Y0, Y0, Y1   // x2 = x * x

	VMOVUPS 64(DX), Y2 // p = a13
	VMULPS  Y1, Y2, Y2
	VADDPS  96(DX), Y2, Y2 // p = p*x2 + a11
	VMULPS  Y1, Y2, Y2
	VADDPS  128(DX), Y2, Y2 // + a9
	VMULPS  Y1, Y2, Y2
	VADDPS  160(DX), Y2, Y2 // + a7
	VMULPS  Y1, Y2, Y2
	VADDPS  192(DX), Y2, Y2 // + a5
	VMULPS  Y1, Y2, Y2
	VADDPS  224(DX), Y2, Y2 // + a3
	VMULPS  Y1, Y2, Y2
	VADDPS  256(DX), Y2, Y2 // + a1
	VMULPS  Y0, Y2, Y2      // p *= x

	VMOVUPS 288(DX), Y3 // q = b6
	VMULPS  Y1, Y3, Y3
	VADDPS  320(DX), Y3, Y3 // q = q*x2 + b4
	VMULPS  Y1, Y3, Y3
	VADDPS  352(DX), Y3, Y3 // + b2
	VMULPS  Y1, Y3, Y3
	VADDPS  384(DX), Y3, Y3 // + b0

	VDIVPS  Y3, Y2, Y2 // p / q
	VMOVUPS Y2, (DI)

	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  tanhloop
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID              // leaf 0: EAX = highest standard leaf
	CMPL  AX, $7
	JLT   noavx2
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   noavx2
	XORL  CX, CX
	XGETBV                // EDX:EAX = XCR0
	ANDL  $6, AX          // XMM (bit 1) and YMM (bit 2) state enabled
	CMPL  AX, $6
	JNE   noavx2
	MOVL  $7, AX
	XORL  CX, CX
	CPUID                 // leaf 7 subleaf 0: EBX bit 5 = AVX2
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET
