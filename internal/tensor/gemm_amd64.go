package tensor

// useSIMD routes matMulABTInto's 16-column blocks through the AVX2 kernel
// in gemm_amd64.s, and the whole 4-lane groups of matMulRows' and
// matMulATBRows's inner sweeps through the kernels in axpy_amd64.s. It is
// set once from the CPU; only in-package tests flip it, to compare the
// two paths.
var useSIMD = HasAVX2()

// abtKernel16 writes a 16-column block of out = a·b (+bias) for rows
// consecutive rows: a rows are k apart, out rows n apart, b is one packed
// k×16 panel block and bias (nil for none) points at the block's 16 biases.
//
//go:noescape
func abtKernel16(out, a, b, bias *float64, rows, k, n int)

// axpyKernel, axpyRowsKernel and axpyStepsKernel are axpy, axpyRows and
// axpySteps (ops.go) over the first n&^3 elements.
//
//go:noescape
func axpyKernel(o, b *float64, a float64, n int)

//go:noescape
func axpyRowsKernel(o0, o1, b *float64, a0, a1 float64, n int)

//go:noescape
func axpyStepsKernel(o, b0, b1 *float64, a0, a1 float64, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// HasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state:
// CPUID.1:ECX OSXSAVE (bit 27) and AVX (bit 28), XCR0 XMM|YMM (bits 1–2),
// CPUID.(7,0):EBX AVX2 (bit 5). It is the one CPU probe behind every SIMD
// kernel in the module (this package's and internal/compress's).
func HasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
