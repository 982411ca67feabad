package nn

import (
	"math"
	"testing"
)

// TestTanhF32Accuracy sweeps the rational approximation against float64
// math.Tanh. The bound is a few float32 ulps of the true value (|tanh| ≤ 1,
// so 1e-6 absolute ≈ 8 ulps near saturation — the approximation is
// typically within 1–2).
func TestTanhF32Accuracy(t *testing.T) {
	maxErr := 0.0
	for x := -12.0; x <= 12.0; x += 1.0 / 512 {
		got := float64(tanhF32(float32(x)))
		want := math.Tanh(x)
		if err := math.Abs(got - want); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 1e-6 {
		t.Fatalf("max |tanhF32 - tanh| = %.3g, want <= 1e-6", maxErr)
	}
	t.Logf("max abs error over [-12,12]: %.3g", maxErr)
}

// TestTanhF32Properties checks exact oddness (the numerator is odd and the
// denominator even in x, so symmetry holds bit-for-bit), the zero fixed
// point, and saturation at large |x|.
func TestTanhF32Properties(t *testing.T) {
	if tanhF32(0) != 0 {
		t.Fatalf("tanhF32(0) = %v, want 0", tanhF32(0))
	}
	for _, x := range []float32{1e-4, 0.5, 1, 2.5, 7, 8, 100} {
		if tanhF32(-x) != -tanhF32(x) {
			t.Fatalf("oddness broken at x=%v: %v vs %v", x, tanhF32(-x), -tanhF32(x))
		}
	}
	if y := tanhF32(50); y < 0.999999 || y > 1 {
		t.Fatalf("tanhF32(50) = %v, want saturated in (0.999999, 1]", y)
	}
	// Derivative-from-output stays in [0,1] at saturation (no 1−y² underflow
	// to negative values).
	if d := Tanh.derivFromOut(tanhF32(50)); d < 0 {
		t.Fatalf("derivFromOut at saturation went negative: %v", d)
	}
}

// tanhSweep returns the tanh epilogue's test inputs: a strided sweep of all
// 2³² float32 bit patterns (both signs, denormals, NaN payloads) plus the
// special values and the clamp boundary with its neighbouring ulps.
func tanhSweep() []float32 {
	clamp := float32(tanhClamp)
	inf := float32(math.Inf(1))
	xs := []float32{
		0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()),
		math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001), // negative and signaling NaN
		clamp, -clamp,
		math.Nextafter32(clamp, inf), math.Nextafter32(clamp, 0),
		math.Nextafter32(-clamp, -inf), math.Nextafter32(-clamp, 0),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -1,
	}
	const stride = 40503 // odd, so the sweep visits every low-bit residue class
	for bits := uint64(0); bits < 1<<32; bits += stride {
		xs = append(xs, math.Float32frombits(uint32(bits)))
	}
	return xs
}

// TestTanhF32BiasAVX2MatchesScalar pins the 8-wide tanh epilogue to the
// scalar one bit for bit: for every sweep input and a set of biases,
// applyBiasAct's vector lanes and its scalar tail must equal
// tanhF32(x + b) exactly — NaN payloads, infinities and the clamp edges
// included. A bias of -0 makes x + b = x for every x, so tanhF32 itself is
// covered too. The row length is not a multiple of 8, so the scalar tail
// runs as well.
func TestTanhF32BiasAVX2MatchesScalar(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU or target")
	}
	xs := tanhSweep()
	negZero := float32(math.Copysign(0, -1))
	for _, bias := range []float32{negZero, 0, 0.75, -3.5, 7.9} {
		row := append([]float32(nil), xs...)
		b := make([]float32, len(row))
		for i := range b {
			b[i] = bias
		}
		applyBiasAct(row, b, Tanh)
		for i, x := range xs {
			want := tanhF32(x + bias)
			if math.Float32bits(row[i]) != math.Float32bits(want) {
				t.Fatalf("x=%v (bits %#08x) bias=%v: vector %v (%#08x) != scalar %v (%#08x)",
					x, math.Float32bits(x), bias, row[i], math.Float32bits(row[i]), want, math.Float32bits(want))
			}
		}
	}
	if len(xs)%8 == 0 {
		t.Fatal("sweep length is a multiple of 8: the scalar tail is not exercised")
	}
}
