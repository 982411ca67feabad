package nn

import "testing"

// DisableAVX2 routes GEMM and the tanh epilogue through the portable paths
// (SSE on amd64, scalar elsewhere) until the test ends. Tests that use it
// must not run in parallel with other tests of this package.
func DisableAVX2(tb testing.TB) {
	saved := haveAVX2
	haveAVX2 = false
	tb.Cleanup(func() { haveAVX2 = saved })
}
