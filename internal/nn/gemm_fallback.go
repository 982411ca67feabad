//go:build !amd64

package nn

// haveGemmKernel is false on non-amd64 targets: gemmNT always takes the
// portable gemmNTScalar path, which is bit-identical to the assembly kernels
// by the determinism contract in gemm.go.
const haveGemmKernel = false

// haveAVX2 is always false off amd64. It is a variable only so that tests
// can force the portable paths on every target with the same code.
var haveAVX2 = false

// The assembly kernels are never reached when haveGemmKernel and haveAVX2
// are false; the stubs exist so the package compiles on every target.

func gemmKernel4x4(k int, a *float32, lda int, panel *float32, c *float32, ldc int) {
	panic("nn: gemmKernel4x4 called on a target without an assembly kernel")
}

func gemmKernel4x8(k int, a *float32, lda int, panel *float32, c *float32, ldc int) {
	panic("nn: gemmKernel4x8 called on a target without an assembly kernel")
}

func tanhF32BiasAVX2(row, b *float32, n int, consts *[tanhF32NumConsts][8]float32) {
	panic("nn: tanhF32BiasAVX2 called on a target without an assembly kernel")
}
