//go:build amd64

package nn

// haveGemmKernel gates the SSE panel path in gemmNT. Its kernel uses only
// SSE1/SSE2 instructions (MOVUPS/MOVSS/SHUFPS/MULPS/ADDPS), which are part
// of the amd64 baseline, so it runs on every amd64 CPU at any GOAMD64 level.
const haveGemmKernel = true

// haveAVX2 gates the AVX2 paths: gemmNTPanel8 and the 8-wide tanh epilogue.
// It is decided once at start-up from CPUID and XGETBV (cpuHasAVX2) and is
// never changed afterwards; on a CPU without AVX2, or an OS that does not
// save the YMM registers, gemmNT falls back to the SSE path. Every path
// produces the same bits, so the choice only changes speed.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU supports AVX2 (CPUID leaf 7, EBX bit 5)
// and AVX (leaf 1, ECX bit 28), and the OS has enabled the XMM and YMM
// state (OSXSAVE, leaf 1 ECX bit 27, and XCR0 bits 1 and 2).
func cpuHasAVX2() bool

// gemmKernel4x4 computes the 4×4 block C[0:4][0:4] = A[0:4][0:k] @ panelᵀ,
// overwriting C. a points at the first of four consecutive A rows (row
// stride lda floats), c at the top-left of the output block (row stride ldc
// floats), and panel at a k-major packed block of four B rows: panel[t*4+l]
// holds B[l][t], so one 16-byte load per contraction step t fetches the four
// B values multiplied against each A element.
//
// Determinism: lane l of accumulator row r is the single chain
// sum_t a[r][t]*B[l][t] in ascending t, with MULPS and ADDPS rounding each
// term exactly like the scalar expression `s += float32(av * bv)` —
// bit-identical to gemmNTScalar and the naive reference.
//
//go:noescape
func gemmKernel4x4(k int, a *float32, lda int, panel *float32, c *float32, ldc int)

// gemmKernel4x8 is the AVX2 counterpart of gemmKernel4x4 for an eight-row
// B panel (panel[t*8+l] holds B[l][t]): it overwrites the 4×8 block at c.
// Per contraction step it loads the eight packed B values once and, for
// each of the four A rows, broadcasts the A element (VBROADCASTSS),
// multiplies (VMULPS) and accumulates (VADDPS). It deliberately uses no FMA:
// lane l of row r is the same single ascending-t chain of rounded products
// as the scalar and SSE kernels. Only called when haveAVX2 is true.
//
//go:noescape
func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int)

// tanhF32BiasAVX2 overwrites row[c] with tanhF32(row[c] + b[c]) for
// c in [0, n), eight lanes at a time; n must be a positive multiple of 8.
// consts is tanhF32Lanes: the clamp and the polynomial coefficients as
// float32 bits, so each lane performs exactly tanhF32's operations (clamp,
// then the two Horner chains, multiply then add, then one division) in
// tanhF32's order. Only called when haveAVX2 is true.
//
//go:noescape
func tanhF32BiasAVX2(row, b *float32, n int, consts *[tanhF32NumConsts][8]float32)
