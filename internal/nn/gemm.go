package nn

// Blocked float32 GEMM. The single real kernel is gemmNT, which computes
// C = A @ Bᵀ with both operands row-major and the contraction dimension K
// contiguous in memory — the pure dot-product layout, so the inner loop
// streams both operands linearly. The other products (a@b, aᵀ@b) are
// expressed by packing the relevant operand's transpose into a contiguous
// panel and calling gemmNT (see tensor.go and the Dense backward pass).
//
// Determinism contract: every output element is produced by ONE accumulator
// chain summing a[i][p]·b[j][p] in strictly ascending p, each product
// rounded to float32 before it is added (no fused multiply-add: the Go code
// rounds explicitly with float32(a*b), the assembly kernels use separate
// multiply and add instructions). Blocking and the register-tiled
// micro-kernels change which elements are computed when, never the
// per-element order — so results are bit-identical to the naive dot-product
// reference at any block size, on every path and every platform, and
// partitioning rows across workers (ForwardBatch) cannot change a single bit.
//
// gemmColBlock is the only cache-tiling parameter of the scalar kernel:
// columns of C (= rows of B) are processed in blocks so the B slice touched
// by the micro-kernel stays L1-resident (128 rows × K floats; at the repo's
// layer widths K ≤ 64, that is ≤ 32 KiB). The M and K dimensions are not
// tiled — the A row pair of the micro-kernel is at most a few hundred bytes
// and K never exceeds a few hundred in this codebase.
const gemmColBlock = 128

// gemmPanelK bounds the contraction length the vectorized panel paths
// handle: their k-major B panels live in fixed-size stack arrays (at most
// 8·256 floats = 8 KiB). Every GEMM in this codebase has k ≤ max(layer
// width, batch size) ≤ 256; anything larger falls back to the scalar kernel
// rather than split k, because splitting k would break the
// single-ascending-chain determinism contract.
const gemmPanelK = 256

// gemmNT writes C = A @ Bᵀ. A is m×k with row stride lda, B is n×k with row
// stride ldb, C is m×n with row stride ldc; every C cell is overwritten.
//
// Three implementations sit behind this dispatcher, picked in this order.
// All honor the per-element ascending-k contract above and perform the
// identical float32 multiply-then-add per term, so they are bit-identical
// to each other and to the naive reference, and the choice of path can
// never change a result:
//
//   - gemmNTPanel8 (amd64 with AVX2, chosen once at start-up from CPUID):
//     packs eight B rows into a k-major panel and runs a 4×8 AVX2
//     micro-kernel (VBROADCASTSS, VMULPS, VADDPS per A element). Ragged
//     shapes are zero-padded — the last 8-column panel and the last <4-row
//     A block — and only the valid lanes are copied out, so every m ≥ 4
//     shape stays on the vector path.
//   - gemmNTPanel (any amd64): the same scheme 4 columns wide with the SSE
//     4×4 micro-kernel; row and column tails go through gemmNTScalar.
//   - gemmNTScalar: the portable 2×4 register-tiled loop, used on every
//     other target, for k > gemmPanelK, and for m < 4. Single-row calls
//     (MLP.Forward1) stay here on purpose: padding one A row up to a 4-row
//     block would repack all of B on every call for one row of output.
//
// Vectorizing across *columns* preserves bit-identity where vectorizing
// across k would not: each vector lane is one output element's own chain.
func gemmNT(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	switch {
	case k <= 0 || k > gemmPanelK || m < 4:
		gemmNTScalar(m, n, k, a, lda, b, ldb, c, ldc)
	case haveAVX2:
		gemmNTPanel8(m, n, k, a, lda, b, ldb, c, ldc)
	case haveGemmKernel && n >= 4:
		gemmNTPanel(m, n, k, a, lda, b, ldb, c, ldc)
	default:
		gemmNTScalar(m, n, k, a, lda, b, ldb, c, ldc)
	}
}

// gemmNTPanel8 is the AVX2 path: for each block of eight C columns it packs
// the eight corresponding B rows k-major (panel[t*8+l] = b[j+l][t]) and
// sweeps the 4-row A blocks with the 4×8 kernel. The last panel of a ragged
// n is zero-padded past the valid columns and its blocks land in a 4×8
// staging tile from which only the valid lanes are copied; the rows of a
// ragged m's last block are copied into a zero-padded 4-row A block. The
// padding lanes and rows compute throwaway sums and never touch C. The
// dispatcher guarantees 1 ≤ k ≤ gemmPanelK and m ≥ 4.
func gemmNTPanel8(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	var panel [8 * gemmPanelK]float32
	var aTail [4 * gemmPanelK]float32
	var tile [4 * 8]float32
	m4 := m &^ 3
	for r := m4; r < m; r++ {
		copy(aTail[(r-m4)*k:(r-m4+1)*k], a[r*lda:r*lda+k])
	}
	for j := 0; j < n; j += 8 {
		w := min(8, n-j)
		if w == 8 {
			gemmPackPanel8(panel[:8*k], b[j*ldb:], ldb, k)
		} else {
			for t := range k {
				lanes := panel[t*8 : t*8+8 : t*8+8]
				for l := range lanes {
					lanes[l] = 0
					if l < w {
						lanes[l] = b[(j+l)*ldb+t]
					}
				}
			}
		}
		for i := 0; i < m4; i += 4 {
			if w == 8 {
				gemmKernel4x8(k, &a[i*lda], lda, &panel[0], &c[i*ldc+j], ldc)
				continue
			}
			gemmKernel4x8(k, &a[i*lda], lda, &panel[0], &tile[0], 8)
			for r := 0; r < 4; r++ {
				copy(c[(i+r)*ldc+j:(i+r)*ldc+j+w], tile[r*8:r*8+w])
			}
		}
		if m4 < m {
			gemmKernel4x8(k, &aTail[0], k, &panel[0], &tile[0], 8)
			for r := m4; r < m; r++ {
				copy(c[r*ldc+j:r*ldc+j+w], tile[(r-m4)*8:(r-m4)*8+w])
			}
		}
	}
}

// gemmNTPanel is the vectorized path: for each block of four C columns it
// packs the four corresponding B rows k-major (panel[t*4+l] = b[j+l][t], so
// the micro-kernel's 4-lane load at step t reads the four B values of
// contraction index t) and sweeps all full 4-row A blocks with the SSE
// kernel. Row and column remainders go through gemmNTScalar on offset
// subviews.
func gemmNTPanel(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	var panel [4 * gemmPanelK]float32
	m4, n4 := m&^3, n&^3
	for j := 0; j < n4; j += 4 {
		b0 := b[j*ldb : j*ldb+k]
		b1 := b[(j+1)*ldb : (j+1)*ldb+k]
		b2 := b[(j+2)*ldb : (j+2)*ldb+k]
		b3 := b[(j+3)*ldb : (j+3)*ldb+k]
		b1 = b1[:len(b0)]
		b2 = b2[:len(b0)]
		b3 = b3[:len(b0)]
		for t := range b0 {
			panel[t*4+0] = b0[t]
			panel[t*4+1] = b1[t]
			panel[t*4+2] = b2[t]
			panel[t*4+3] = b3[t]
		}
		for i := 0; i < m4; i += 4 {
			gemmKernel4x4(k, &a[i*lda], lda, &panel[0], &c[i*ldc+j], ldc)
		}
	}
	if m4 < m && n4 > 0 {
		gemmNTScalar(m-m4, n4, k, a[m4*lda:], lda, b, ldb, c[m4*ldc:], ldc)
	}
	if n4 < n {
		gemmNTScalar(m, n-n4, k, a, lda, b[n4*ldb:], ldb, c[n4:], ldc)
	}
}

// gemmPackPanel8 packs the first k columns of eight consecutive B rows (row
// stride ldb) k-major into panel: panel[t*8+l] = b[l*ldb+t].
func gemmPackPanel8(panel, b []float32, ldb, k int) {
	b0 := b[:k]
	b1 := b[ldb:][:len(b0)]
	b2 := b[2*ldb:][:len(b0)]
	b3 := b[3*ldb:][:len(b0)]
	b4 := b[4*ldb:][:len(b0)]
	b5 := b[5*ldb:][:len(b0)]
	b6 := b[6*ldb:][:len(b0)]
	b7 := b[7*ldb:][:len(b0)]
	for t := range b0 {
		lanes := panel[t*8 : t*8+8 : t*8+8]
		lanes[0], lanes[1], lanes[2], lanes[3] = b0[t], b1[t], b2[t], b3[t]
		lanes[4], lanes[5], lanes[6], lanes[7] = b4[t], b5[t], b6[t], b7[t]
	}
}

// gemmNTScalar is the portable kernel. The micro-kernel is 2×4: two A rows
// against four B rows yield eight independent accumulator chains, enough
// instruction-level parallelism to hide FP add latency on a single core
// without changing per-element order. Every product is rounded explicitly
// (float32(a*b)): without the conversion the compiler fuses the
// multiply-add on targets such as arm64, and the results would differ from
// amd64's.
func gemmNTScalar(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for jb := 0; jb < n; jb += gemmColBlock {
		jmax := jb + gemmColBlock
		if jmax > n {
			jmax = n
		}
		i := 0
		for ; i+1 < m; i += 2 {
			a0 := a[i*lda : i*lda+k]
			a1 := a[(i+1)*lda : (i+1)*lda+k]
			a1 = a1[:len(a0)] // bounds-check elimination for a1[p]
			c0 := c[i*ldc : i*ldc+n]
			c1 := c[(i+1)*ldc : (i+1)*ldc+n]
			j := jb
			for ; j+3 < jmax; j += 4 {
				b0 := b[j*ldb : j*ldb+k]
				b1 := b[(j+1)*ldb : (j+1)*ldb+k]
				b2 := b[(j+2)*ldb : (j+2)*ldb+k]
				b3 := b[(j+3)*ldb : (j+3)*ldb+k]
				b0 = b0[:len(a0)]
				b1 = b1[:len(a0)]
				b2 = b2[:len(a0)]
				b3 = b3[:len(a0)]
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				for p := range a0 {
					av0, av1 := a0[p], a1[p]
					bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
					s00 += float32(av0 * bv0)
					s01 += float32(av0 * bv1)
					s02 += float32(av0 * bv2)
					s03 += float32(av0 * bv3)
					s10 += float32(av1 * bv0)
					s11 += float32(av1 * bv1)
					s12 += float32(av1 * bv2)
					s13 += float32(av1 * bv3)
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
				c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			}
			for ; j < jmax; j++ {
				b0 := b[j*ldb : j*ldb+k]
				b0 = b0[:len(a0)]
				var s0, s1 float32
				for p := range a0 {
					s0 += float32(a0[p] * b0[p])
					s1 += float32(a1[p] * b0[p])
				}
				c0[j], c1[j] = s0, s1
			}
		}
		if i < m {
			a0 := a[i*lda : i*lda+k]
			c0 := c[i*ldc : i*ldc+n]
			j := jb
			for ; j+3 < jmax; j += 4 {
				b0 := b[j*ldb : j*ldb+k]
				b1 := b[(j+1)*ldb : (j+1)*ldb+k]
				b2 := b[(j+2)*ldb : (j+2)*ldb+k]
				b3 := b[(j+3)*ldb : (j+3)*ldb+k]
				b0 = b0[:len(a0)]
				b1 = b1[:len(a0)]
				b2 = b2[:len(a0)]
				b3 = b3[:len(a0)]
				var s0, s1, s2, s3 float32
				for p := range a0 {
					av := a0[p]
					s0 += float32(av * b0[p])
					s1 += float32(av * b1[p])
					s2 += float32(av * b2[p])
					s3 += float32(av * b3[p])
				}
				c0[j], c0[j+1], c0[j+2], c0[j+3] = s0, s1, s2, s3
			}
			for ; j < jmax; j++ {
				b0 := b[j*ldb : j*ldb+k]
				b0 = b0[:len(a0)]
				var s float32
				for p := range a0 {
					s += float32(a0[p] * b0[p])
				}
				c0[j] = s
			}
		}
	}
}

// packTranspose writes src's transpose into dst as a contiguous
// Cols×Rows row-major panel, growing dst if needed, and returns it. This is
// how a@b and aᵀ@b become gemmNT calls: the packed panel puts the
// contraction dimension contiguous for the B side of the kernel.
func packTranspose(src *Mat, dst []float32) []float32 {
	n := src.Rows * src.Cols
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	rows, cols := src.Rows, src.Cols
	for r := 0; r < rows; r++ {
		row := src.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
	return dst
}
