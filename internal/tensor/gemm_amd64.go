package tensor

// useSIMD routes matMulABTInto's 16-column blocks and every row of a·b
// and aᵀ·b through the AVX2 kernels in gemm_amd64.s, and the whole 4-lane
// groups of axpy, divide and Mix through the kernels in axpy_amd64.s. It
// is set once from the CPU; only in-package tests flip it, to compare the
// two paths.
var useSIMD = HasAVX2()

// abtKernel16 writes a 16-column block of out = a·b (+bias) for rows
// consecutive rows: a rows are k apart, out rows n apart, b is one packed
// k×16 panel block and bias (nil for none) points at the block's 16 biases.
//
//go:noescape
func abtKernel16(out, a, b, bias *float64, rows, k, n int)

// nzKernel writes the n columns of one output row: out[j] = Σ v·b[off+j]
// over the count entries of list (offsets in bytes from b), starting from
// +0, or from out's own values when acc, then adds bias[j] unless bias is
// nil.
//
//go:noescape
func nzKernel(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool)

// listKernel lists the nonzeros among the count values left[0], left[ps],
// left[2·ps], … in order, the i-th of them with byte offset off + i·step,
// and returns how many it listed. list must hold count entries.
//
//go:noescape
func listKernel(list *nonzero, left *float64, count, ps, off, step int) int

// axpyKernel is axpy (ops.go) over the first n&^3 elements.
//
//go:noescape
func axpyKernel(o, b *float64, a float64, n int)

// divKernel is divide (ops.go) over the first n&^3 elements.
//
//go:noescape
func divKernel(o *float64, d float64, n int)

// mixKernel is Mix (ops.go) over the first n&^3 elements, with b = 1 − a.
//
//go:noescape
func mixKernel(o, c *float64, b, a float64, n int)

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
