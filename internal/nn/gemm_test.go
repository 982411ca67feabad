package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refGemmNT is the naive reference for C = A @ Bᵀ: one accumulator per
// output element, strictly ascending k. The blocked kernel promises
// bit-identical results to exactly this order at any block size, which is
// what makes worker-count byte-identity possible — so the comparisons below
// are exact equality, not tolerance.
func refGemmNT(m, n, k int, a, b []float32) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[i*k+p] * b[j*k+p])
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randMat(src *rng.Source, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(src.Uniform(-2, 2))
	}
	return m
}

// TestGemmBlockedMatchesNaive sweeps shapes around every tiling boundary:
// the 2×4 micro-kernel (m and n remainders 0/1 and 0..3), the gemmColBlock
// column block (n straddling 127..130), degenerate vectors, and random
// ragged shapes. Exact equality everywhere.
func TestGemmBlockedMatchesNaive(t *testing.T) {
	src := rng.New(31)
	type shape struct{ m, n, k int }
	shapes := []shape{
		{1, 1, 1}, {1, 1, 7}, {2, 4, 8}, {3, 5, 7}, {2, 3, 1},
		{1, 4, 16}, {2, 1, 16}, {5, 4, 3}, {4, 5, 2}, {7, 7, 7},
		{64, 14, 55}, {64, 64, 64}, {33, 17, 9},
		// straddle the column block
		{3, 127, 5}, {3, 128, 5}, {3, 129, 5}, {2, 130, 3}, {1, 256, 4},
		// straddle the 4×4 panel kernel's row/col blocks and gemmPanelK
		{4, 4, 1}, {4, 4, 3}, {5, 5, 8}, {6, 7, 16}, {7, 4, 5}, {4, 9, 5},
		{8, 8, 255}, {8, 8, 256}, {8, 8, 257},
	}
	for trial := 0; trial < 40; trial++ {
		shapes = append(shapes, shape{1 + src.Intn(40), 1 + src.Intn(40), 1 + src.Intn(40)})
	}
	for _, s := range shapes {
		a := randMat(src, s.m, s.k)
		b := randMat(src, s.n, s.k)
		got := MatMulTransB(a, b)
		want := refGemmNT(s.m, s.n, s.k, a.Data, b.Data)
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("shape %dx%dx%d: blocked[%d]=%v naive[%d]=%v (must be bit-identical)",
					s.m, s.n, s.k, i, got.Data[i], i, want[i])
			}
		}
	}
}

// TestGemmPanelMatchesScalar pins the dispatcher's bit-identity promise
// directly: each vectorized panel path and the portable scalar path must
// agree exactly on every shape the panel path handles. The SSE 4×4 path
// takes m, n ≥ 4 and sends tails to the scalar kernel; the AVX2 4×8 path
// takes every m ≥ 4 and zero-pads its tails, so its shapes cover every
// n%8 and m%4 remainder, n < 4, k = 1, k = gemmPanelK and the CMA2C
// training shapes. Operands and output use strides wider than the
// logical shape, and the padding columns of C must come back untouched. A
// path the CPU (or target) lacks skips.
func TestGemmPanelMatchesScalar(t *testing.T) {
	type shape struct{ m, n, k int }
	type panelPath struct {
		name   string
		ok     bool
		minN   int
		run    func(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
		shapes []shape
	}
	src := rng.New(53)
	sse := []shape{
		{4, 4, 1}, {4, 4, 64}, {5, 6, 7}, {7, 9, 13}, {64, 64, 64},
		{64, 14, 55}, {256, 64, 55}, {6, 5, 256},
	}
	var avx2 []shape
	for r := 1; r <= 7; r++ { // n%8 = 1..7, with and without full panels
		avx2 = append(avx2, shape{4, r, 5}, shape{8, 8 + r, 9}, shape{12, 16 + r, 3})
	}
	for r := 1; r <= 3; r++ { // m%4 = 1..3, with full and ragged panels
		avx2 = append(avx2, shape{4 + r, 8, 6}, shape{8 + r, 13, 11}, shape{4 + r, 3, 2})
	}
	avx2 = append(avx2,
		shape{4, 1, 1}, shape{5, 2, 1}, shape{9, 8, 1}, shape{6, 3, 7}, // n < 4, k = 1
		shape{4, 8, gemmPanelK}, shape{7, 11, gemmPanelK}, shape{5, 1, gemmPanelK},
		// CMA2C training: forward (batch × out × in), dL/dW (out × in × batch)
		// and dL/dx (batch × in × out) of the 55→64→64→{14,1} networks.
		shape{64, 64, 55}, shape{64, 64, 64}, shape{64, 14, 64}, shape{64, 1, 64},
		shape{64, 55, 64}, shape{14, 64, 64}, shape{64, 64, 14}, shape{64, 64, 1},
		shape{300, 14, 64}, shape{257, 64, 55},
	)
	for trial := 0; trial < 30; trial++ {
		sse = append(sse, shape{4 + src.Intn(40), 4 + src.Intn(40), 1 + src.Intn(80)})
		avx2 = append(avx2, shape{4 + src.Intn(40), 1 + src.Intn(40), 1 + src.Intn(80)})
	}
	paths := []panelPath{
		{"sse-4x4", haveGemmKernel, 4, gemmNTPanel, sse},
		{"avx2-4x8", haveAVX2, 1, gemmNTPanel8, avx2},
	}
	const sentinel = float32(-12345.5)
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			if !p.ok {
				t.Skip("kernel not available on this CPU or target")
			}
			for _, s := range p.shapes {
				if s.m < 4 || s.n < p.minN || s.k > gemmPanelK {
					t.Fatalf("shape %dx%dx%d is not a %s shape", s.m, s.n, s.k, p.name)
				}
				lda, ldb, ldc := s.k+3, s.k+1, s.n+5
				a := randMat(src, s.m, lda)
				b := randMat(src, s.n, ldb)
				panel := make([]float32, s.m*ldc)
				scalar := make([]float32, s.m*ldc)
				for i := range panel {
					panel[i], scalar[i] = sentinel, sentinel
				}
				p.run(s.m, s.n, s.k, a.Data, lda, b.Data, ldb, panel, ldc)
				gemmNTScalar(s.m, s.n, s.k, a.Data, lda, b.Data, ldb, scalar, ldc)
				for i := range scalar {
					if math.Float32bits(panel[i]) != math.Float32bits(scalar[i]) {
						t.Fatalf("shape %dx%dx%d: %s[%d]=%v scalar[%d]=%v (must be bit-identical; padding must stay %v)",
							s.m, s.n, s.k, p.name, i, panel[i], i, scalar[i], sentinel)
					}
				}
			}
		})
	}
}

// TestMatMulVariantsMatchNaive checks the packed-transpose paths (a@b and
// aᵀ@b) against naive ascending-k dot products at ragged shapes.
func TestMatMulVariantsMatchNaive(t *testing.T) {
	src := rng.New(37)
	for trial := 0; trial < 30; trial++ {
		m := 1 + src.Intn(20)
		k := 1 + src.Intn(20)
		n := 1 + src.Intn(20)

		a := randMat(src, m, k)
		b := randMat(src, k, n)
		got := MatMul(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += float32(a.Data[i*k+p] * b.Data[p*n+j])
				}
				if got.Data[i*n+j] != s {
					t.Fatalf("MatMul %dx%dx%d at (%d,%d): %v != %v", m, k, n, i, j, got.Data[i*n+j], s)
				}
			}
		}

		at := randMat(src, k, m) // aᵀ stored: k×m
		got = MatMulTransA(at, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += float32(at.Data[p*m+i] * b.Data[p*n+j])
				}
				if got.Data[i*n+j] != s {
					t.Fatalf("MatMulTransA %dx%dx%d at (%d,%d): %v != %v", m, k, n, i, j, got.Data[i*n+j], s)
				}
			}
		}
	}
}

// TestGemmIntoReuseStable proves the Into variants give bit-identical
// results when reusing an oversized scratch matrix.
func TestGemmIntoReuseStable(t *testing.T) {
	src := rng.New(41)
	scratch := NewMat(64, 64) // oversized, will be resliced down
	for trial := 0; trial < 10; trial++ {
		m, n, k := 1+src.Intn(8), 1+src.Intn(8), 1+src.Intn(8)
		a := randMat(src, m, k)
		b := randMat(src, n, k)
		fresh := MatMulTransB(a, b)
		scratch = MatMulTransBInto(a, b, scratch)
		for i := range fresh.Data {
			if scratch.Data[i] != fresh.Data[i] {
				t.Fatalf("reused scratch differs at %d", i)
			}
		}
	}
}

func TestPackTranspose(t *testing.T) {
	src := rng.New(43)
	m := randMat(src, 5, 3)
	panel := packTranspose(m, nil)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if panel[c*m.Rows+r] != m.Data[r*m.Cols+c] {
				t.Fatalf("packTranspose(%d,%d) wrong", r, c)
			}
		}
	}
	// Reuse with exact-size buffer must not allocate a new one.
	buf := make([]float32, 15)
	out := packTranspose(m, buf)
	if &out[0] != &buf[0] {
		t.Fatal("packTranspose reallocated a sufficient buffer")
	}
}
