package tensor

// useSIMD routes matMulABTInto's 16-column blocks and every row of a·b
// and aᵀ·b through the AVX2 kernels in gemm_amd64.s, and the whole 4-lane
// groups of axpy, divide and Mix through the kernels in axpy_amd64.s. It
// is set once from the CPU; only in-package tests flip it, to compare the
// paths.
var useSIMD = HasAVX2()

// useAVX512 routes the whole 4-row groups of abtKernel16's blocks through
// abtKernel16AVX512, and every a·b and aᵀ·b row through nzNarrowAVX512
// (n ≤ 32) or nzKernelAVX512 (wider), so no row reaches nzKernel. It is
// set once from the CPU and implies useSIMD; only in-package tests flip
// it, to compare the three paths.
var useAVX512 = useSIMD && HasAVX512()

// abtKernel16 writes a 16-column block of out = a·b (+bias) for rows
// consecutive rows: a rows are k apart, out rows n apart, b is one packed
// k×16 panel block and bias (nil for none) points at the block's 16 biases.
//
//go:noescape
func abtKernel16(out, a, b, bias *float64, rows, k, n int)

// abtKernel16AVX512 is abtKernel16 for rows a multiple of 4.
//
//go:noescape
func abtKernel16AVX512(out, a, b, bias *float64, rows, k, n int)

// nzKernel writes the n columns of one output row: out[j] = Σ v·b[off+j]
// over the count entries of list (offsets in bytes from b), starting from
// +0, or from out's own values when acc, then adds bias[j] unless bias is
// nil.
//
//go:noescape
func nzKernel(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool)

// nzKernelAVX512 is nzKernel on ZMM registers.
//
//go:noescape
func nzKernelAVX512(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool)

// nzNarrowAVX512 writes rows consecutive output rows of n ≤ 32 columns:
// out[i·n+j] = Σ v·b[p·n+j] over the count ≥ 1 steps p whose left entry
// v = left[i·rs+p·ps] is nonzero, starting from +0, or from out's own
// values when acc, then adds bias[j] unless bias is nil. It tests each
// entry with an opmask, so it needs no list.
//
//go:noescape
func nzNarrowAVX512(out, left, b, bias *float64, rows, count, rs, ps, n int, acc bool)

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
// CPUID.(7,0):EBX AVX2 (bit 5). It gates every SIMD kernel in the module
// (this package's and internal/compress's and internal/nn's); HasAVX512
// gates four AVX-512 kernels on top of it: this package's a·bᵀ twin, its
// a·b and aᵀ·b kernels for wide and narrow rows, and internal/nn's
// RMSprop step.
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

// HasAVX512 reports whether, beyond HasAVX2, the CPU has AVX-512F
// (CPUID.(7,0):EBX bit 16) and the OS saves the opmask and all 32 ZMM
// registers: XCR0 bits 5–7 beside XMM|YMM. The four ZMM kernels
// (abtKernel16AVX512, nzKernelAVX512, nzNarrowAVX512 and internal/nn's
// rmspropKernelAVX512) use AVX-512F instructions only.
func HasAVX512() bool {
	if !HasAVX2() {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0 && xgetbv()&0xe6 == 0xe6
}
