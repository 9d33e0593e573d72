package tensor

import "fmt"

// Cold panic constructors. Shape/size guards sit on every hot-path kernel;
// keeping the fmt machinery in separate non-inlinable functions lets the
// guards themselves inline with zero allocation on the happy path (fmt
// argument boxing would otherwise heap-allocate even when the panic branch
// is never taken).

//go:noinline
func panicSizeMismatch(op string, a, b *Tensor) {
	panic(fmt.Sprintf("tensor: %s size mismatch: %v vs %v", op, a.shape, b.shape))
}

//go:noinline
func panicRank(t *Tensor, r int) {
	panic(fmt.Sprintf("tensor: need rank %d, have shape %v", r, t.shape))
}

//go:noinline
func panicMatMulDims(op string, a, b *Tensor) {
	panic(fmt.Sprintf("tensor: %s dimension mismatch: %v x %v", op, a.shape, b.shape))
}

//go:noinline
func panicMatMulDst(op string, dst *Tensor, m, n int) {
	panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.shape, m, n))
}

//go:noinline
func panicBiasLen(op string, have, want int) {
	panic(fmt.Sprintf("tensor: %s bias length %d, want %d", op, have, want))
}

//go:noinline
func panicArgMaxLen(have, want int) {
	panic(fmt.Sprintf("tensor: ArgMaxRowsInto output length %d, want %d", have, want))
}

//go:noinline
func panicAliasSize(have int, shape []int) {
	panic(fmt.Sprintf("tensor: AliasView source size %d does not match shape %v", have, shape))
}

//go:noinline
func panicAxpyArity(coeffs, srcs int) {
	panic(fmt.Sprintf("tensor: AxpySharded %d coeffs for %d sources", coeffs, srcs))
}

//go:noinline
func panicAxpyLen(k, have, want int) {
	panic(fmt.Sprintf("tensor: AxpySharded source %d length %d, want %d", k, have, want))
}

//go:noinline
func panicConvRank(op string, t *Tensor) {
	panic(fmt.Sprintf("tensor: %s needs rank-4 input, have %v", op, t.shape))
}

//go:noinline
func panicIm2ColEmpty(x *Tensor, kh, kw, stride, pad int) {
	panic(fmt.Sprintf("tensor: Im2ColInto produces empty output for input %v kernel %dx%d stride %d pad %d", x.shape, kh, kw, stride, pad))
}

//go:noinline
func panicCol2ImShape(op string, cols *Tensor, rows, colW int) {
	panic(fmt.Sprintf("tensor: %s input %v, want [%d %d]", op, cols.shape, rows, colW))
}

//go:noinline
func panicConvDst(op string, dst *Tensor, shape ...int) {
	panic(fmt.Sprintf("tensor: %s dst shape %v, want %v", op, dst.shape, shape))
}

//go:noinline
func panicSumRowsDst(dst *Tensor, n int) {
	panic(fmt.Sprintf("tensor: SumRowsInto dst shape %v, want %d elements", dst.shape, n))
}
