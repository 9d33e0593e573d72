package tensor

import (
	"runtime"
	"sync"
)

// AxpyInPlace computes t += a·o, modifying t.
func (t *Tensor) AxpyInPlace(a float64, o *Tensor) {
	t.mustSameSize(o, "AxpyInPlace")
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// ArgMaxRowsInto fills out with the per-row argmax of a matrix, reusing
// out's storage. len(out) must equal the row count.
func (t *Tensor) ArgMaxRowsInto(out []int) {
	t.mustRank(2)
	rows, cols := t.shape[0], t.shape[1]
	if len(out) != rows {
		panicArgMaxLen(len(out), rows)
	}
	for i := 0; i < rows; i++ {
		row := t.Data[i*cols : (i+1)*cols]
		best, bestV := 0, row[0]
		for j, v := range row[1:] {
			if v > bestV {
				best, bestV = j+1, v
			}
		}
		out[i] = best
	}
}

// mustSameSize panics when t and o hold different element counts. The
// message formatting lives in a cold, non-inlinable helper so this guard
// inlines into hot loops with no fmt machinery on the happy path.
func (t *Tensor) mustSameSize(o *Tensor, op string) {
	if len(t.Data) != len(o.Data) {
		panicSizeMismatch(op, t, o)
	}
}

// parallelThreshold is the number of multiply-adds below which a product runs
// single-threaded; smaller problems lose more to goroutine scheduling than
// they gain from parallelism.
const parallelThreshold = 1 << 17

// MatMulInto computes dst = a·b, reusing dst's storage. dst must be (m×n).
func MatMulInto(dst, a, b *Tensor) {
	matMulBiasInto(dst, a, b, nil, "MatMulInto")
}

// MatMulBiasInto computes dst = a·b + bias broadcast across rows, reusing
// dst's storage: the bias add is fused into the accumulation kernel while
// each output row is cache-hot, replacing a separate full-tensor traversal.
// bias must have n elements for an (m×n) product. The result is bit-equal
// to MatMulInto followed by a row-wise bias add.
func MatMulBiasInto(dst, a, b, bias *Tensor) {
	matMulBiasInto(dst, a, b, bias, "MatMulBiasInto")
}

func matMulBiasInto(dst, a, b, bias *Tensor, op string) {
	a.mustRank(2)
	b.mustRank(2)
	dst.mustRank(2)
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panicMatMulDims(op, a, b)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panicMatMulDst(op, dst, m, n)
	}
	if bias != nil && len(bias.Data) != n {
		panicBiasLen(op, len(bias.Data), n)
	}
	matMulInto(dst, a, b, bias, m, k, n)
}

// matMulInto writes a·b (+bias) into out. Rows of the output are
// partitioned across goroutines when the problem is large. Per output
// element the operation order is: += a[i,p]·b[p,j] for p ascending with
// zero products skipped, then += bias[j] — identical to the historical
// separate-pass formulation.
func matMulInto(out, a, b, bias *Tensor, m, k, n int) {
	// The serial path calls the row function directly: wrapping it in a
	// closure for both paths would heap-allocate the closure on every
	// batch (flow-insensitive escape analysis sees the parallel branch).
	if m*k*n < parallelThreshold || m == 1 {
		abRows(out, a, b, bias, k, n, 0, m)
		return
	}
	parallelRows(m, func(lo, hi int) { abRows(out, a, b, bias, k, n, lo, hi) })
}

// abRows computes rows [lo,hi) of a·b (+bias): on nzKernel with useSIMD,
// else on matMulRows, the scalar reference.
func abRows(out, a, b, bias *Tensor, k, n, lo, hi int) {
	if !useSIMD || k == 0 || n == 0 {
		matMulRows(out, a, b, bias, k, n, lo, hi)
		return
	}
	var bv []float64
	if bias != nil {
		bv = bias.Data
	}
	nzRows(out.Data, a.Data, b.Data, bv, k, 1, k, n, lo, hi)
}

// matMulRows computes rows [lo,hi) of a·b: each output row is zeroed,
// accumulated over p ascending, then biased — all while the row is
// cache-hot, so no separate whole-tensor zero/bias traversals are needed.
// Rows are processed in pairs so each b row streams through two
// independent accumulator rows (better ILP, half the b traffic). Per
// element the operation order matches the historical
// zero-all/accumulate-all/bias-all single-row formulation exactly: the
// element's row accumulates av·b[p,j] for ascending p with zero products
// skipped, then gains the bias. It is the reference nzRows is held to,
// and the only path off amd64.
func matMulRows(out, a, b, bias *Tensor, k, n, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		arow0 := a.Data[i*k:][:k]
		arow1 := a.Data[(i+1)*k:][:k]
		orow0 := out.Data[i*n:][:n]
		orow1 := out.Data[(i+1)*n:][:n]
		for j := range orow0 {
			orow0[j] = 0
		}
		for j := range orow1 {
			orow1[j] = 0
		}
		for p := 0; p < k; p++ {
			av0, av1 := arow0[p], arow1[p]
			if av0 == 0 && av1 == 0 {
				continue
			}
			brow := b.Data[p*n:][:n]
			switch {
			case av1 == 0:
				axpy(orow0, brow, av0)
			case av0 == 0:
				axpy(orow1, brow, av1)
			default:
				axpyRows(orow0, orow1, brow, av0, av1)
			}
		}
		if bias != nil {
			for j, bv := range bias.Data {
				orow0[j] += bv
			}
			for j, bv := range bias.Data {
				orow1[j] += bv
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*k:][:k]
		orow := out.Data[i*n:][:n]
		for j := range orow {
			orow[j] = 0
		}
		for p, av := range arow {
			if av == 0 {
				continue
			}
			axpy(orow, b.Data[p*n:][:n], av)
		}
		if bias != nil {
			for j, bv := range bias.Data {
				orow[j] += bv
			}
		}
	}
}

// MatMulATBInto computes dst = aᵀ·b, reusing dst's storage. dst must be
// (m×n) for a (k×m) and b (k×n). Every element is written, so dst's prior
// contents do not matter.
func MatMulATBInto(dst, a, b *Tensor) {
	a.mustRank(2)
	b.mustRank(2)
	dst.mustRank(2)
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panicMatMulDims("MatMulATBInto", a, b)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panicMatMulDst("MatMulATBInto", dst, m, n)
	}
	// As in matMulInto, only the parallel branch builds a closure.
	if m*k*n < parallelThreshold || m == 1 {
		atbRows(dst, a, b, k, m, n, 0, m)
		return
	}
	parallelRows(m, func(lo, hi int) { atbRows(dst, a, b, k, m, n, lo, hi) })
}

// atbRows writes rows [lo,hi) of aᵀ·b into out: on nzKernel with useSIMD,
// else on matMulATBRows, the scalar reference.
func atbRows(out, a, b *Tensor, k, m, n, lo, hi int) {
	if !useSIMD || k == 0 || n == 0 {
		matMulATBRows(out, a, b, k, m, n, lo, hi)
		return
	}
	nzRows(out.Data, a.Data, b.Data, nil, 1, m, k, n, lo, hi)
}

// matMulATBRows writes rows [lo,hi) of aᵀ·b into out: it zeroes them, then
// accumulates out[i,j] += a[p,i]·b[p,j] streaming over p so both reads are
// rows. p steps are processed in pairs (two b rows per output-row sweep,
// halving the out traffic); per element the accumulation still runs p
// ascending with zero products skipped, so results are bit-identical to the
// single-step loop whatever the row range. It is the reference nzRows is
// held to, and the only path off amd64.
func matMulATBRows(out, a, b *Tensor, k, m, n, lo, hi int) {
	clear(out.Data[lo*n : hi*n])
	p := 0
	for ; p+2 <= k; p += 2 {
		arow0 := a.Data[p*m:][:m]
		arow1 := a.Data[(p+1)*m:][:m]
		brow0 := b.Data[p*n:][:n]
		brow1 := b.Data[(p+1)*n:][:n]
		for i := lo; i < hi; i++ {
			av0, av1 := arow0[i], arow1[i]
			if av0 == 0 && av1 == 0 {
				continue
			}
			orow := out.Data[i*n:][:n]
			switch {
			case av1 == 0:
				axpy(orow, brow0, av0)
			case av0 == 0:
				axpy(orow, brow1, av1)
			default:
				axpySteps(orow, brow0, brow1, av0, av1)
			}
		}
	}
	for ; p < k; p++ {
		arow := a.Data[p*m:][:m]
		brow := b.Data[p*n:][:n]
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				axpy(out.Data[i*n:][:n], brow, av)
			}
		}
	}
}

// axpy computes o[j] += a·b[j] for j < len(o). With useSIMD the whole
// 4-lane groups run on axpyKernel and the last len(o)%4 on the loop; both
// round the product, then the sum, per element, so the bits agree.
func axpy(o, b []float64, a float64) {
	b = b[:len(o)]
	j := 0
	if useSIMD && len(o) >= 4 {
		j = len(o) &^ 3
		axpyKernel(&o[0], &b[0], a, j)
	}
	for ; j < len(o); j++ {
		o[j] = float64(a*b[j]) + o[j] // rounded product: no fused multiply-add
	}
}

// axpyRows computes o0[j] += a0·b[j] and o1[j] += a1·b[j].
func axpyRows(o0, o1, b []float64, a0, a1 float64) {
	o1, b = o1[:len(o0)], b[:len(o0)]
	for j, bv := range b {
		o0[j] += a0 * bv
		o1[j] += a1 * bv
	}
}

// axpySteps computes o[j] += a0·b0[j] and then o[j] += a1·b1[j], two
// separately rounded adds per element.
func axpySteps(o, b0, b1 []float64, a0, a1 float64) {
	b0, b1 = b0[:len(o)], b1[:len(o)]
	for j := range o {
		o[j] += a0 * b0[j]
		o[j] += a1 * b1[j]
	}
}

// nonzero is one entry of nzKernel's list: a left-operand value and the
// byte offset in b of the row it multiplies.
type nonzero struct {
	v   float64
	off int
}

// nzTile is the number of b rows one pass of nzRows walks, and so the
// length of its list. At the workloads' n ≤ 288 a tile of b is at most
// 288 KiB, which stays in L2 while every output row of the pass runs over
// it, and the list (2 KiB) lives on nzRows' stack: no scratch to recycle,
// so no lock to share.
const nzTile = 128

// nzRows writes rows [lo,hi) of left·b (+bias) into out on nzKernel. Output
// row i's left entries are left[i·rs + p·ps] for p < k: rs, ps = k, 1 is
// a·b and 1, m is aᵀ·b. p runs in tiles of nzTile rows of b; per tile,
// listKernel lists each row's nonzeros in ascending p, and nzKernel
// accumulates them from +0 on the first tile and from the row's partial
// sums after it, then adds the bias after the last. With useAVX512 a row's
// first w = n&^63 columns run on nzKernelAVX512 and the rest on nzKernel,
// each over the same list. Every element thus repeats the scalar loops'
// sequence with zero products skipped.
func nzRows(out, left, b, bias []float64, rs, ps, k, n, lo, hi int) {
	var list [nzTile]nonzero
	var bp, bpw *float64
	w := 0
	if useAVX512 {
		w = n &^ 63
	}
	for p0 := 0; p0 < k; p0 += nzTile {
		p1 := min(p0+nzTile, k)
		if p1 == k && bias != nil {
			bp = &bias[0]
			if w < n {
				bpw = &bias[w]
			}
		}
		for i := lo; i < hi; i++ {
			c := listKernel(&list[0], &left[i*rs+p0*ps], p1-p0, ps, p0*n*8, n*8)
			if w > 0 {
				nzKernelAVX512(&out[i*n], &b[0], &list[0], c, w, bp, p0 > 0)
			}
			if w < n {
				nzKernel(&out[i*n+w], &b[w], &list[0], c, n-w, bpw, p0 > 0)
			}
		}
	}
}

// MatMulABTInto computes dst = a·bᵀ, reusing dst's storage. dst must be
// (m×n) for a (m×k) and b (n×k). Every element is written, so dst's prior
// contents do not matter.
func MatMulABTInto(dst, a, b *Tensor) {
	matMulABTBiasInto(dst, a, b, nil, "MatMulABTInto")
}

// MatMulABTBiasInto computes dst = a·bᵀ + bias broadcast across rows; the
// bias add is fused into the final store of each dot product. The result is
// bit-equal to MatMulABTInto followed by a row-wise bias add.
func MatMulABTBiasInto(dst, a, b, bias *Tensor) {
	matMulABTBiasInto(dst, a, b, bias, "MatMulABTBiasInto")
}

func matMulABTBiasInto(dst, a, b, bias *Tensor, op string) {
	a.mustRank(2)
	b.mustRank(2)
	dst.mustRank(2)
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panicMatMulDims(op, a, b)
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panicMatMulDst(op, dst, m, n)
	}
	if bias != nil && len(bias.Data) != n {
		panicBiasLen(op, len(bias.Data), n)
	}
	matMulABTInto(dst, a, b, bias, m, k, n)
}

// simdCols is the output-column width of the SIMD ABT kernel.
const simdCols = 16

// panels recycles matMulABTInto's packed panels. It is one locked list
// rather than a Pool: a sync.Pool keeps a buffer private to the P that put
// it, and the caller moves between Ps whenever parallelRows wakes it, so a
// Pool keeps missing (and allocating) for the first few calls per size.
// It holds up to panelsPerP panels per P: up to GOMAXPROCS goroutines train
// at once, each cycling through a few sizes (conv forwards, dense input
// gradients, the same during evaluation).
var panels struct {
	sync.Mutex
	free [][]float64
}

const panelsPerP = 4

// getPanel returns the smallest free panel that holds n values, or a new one.
func getPanel(n int) []float64 {
	panels.Lock()
	defer panels.Unlock()
	best := -1
	for i, p := range panels.free {
		if cap(p) >= n && (best < 0 || cap(p) < cap(panels.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	p := panels.free[best]
	last := len(panels.free) - 1
	panels.free[best] = panels.free[last]
	panels.free[last] = nil
	panels.free = panels.free[:last]
	return p[:n]
}

// putPanel files p, or drops it when panelsPerP·GOMAXPROCS panels are free.
func putPanel(p []float64) {
	panels.Lock()
	defer panels.Unlock()
	if len(panels.free) < panelsPerP*runtime.GOMAXPROCS(0) {
		panels.free = append(panels.free, p)
	}
}

// matMulABTInto writes a·bᵀ (+bias) into out. With useSIMD, b's first
// nb = n - n%simdCols rows are packed into a panel and those columns run
// through abtKernel16; the rest take the scalar loop. Either way each
// output element accumulates the rounded a[i,p]·b[j,p] for p ascending
// from +0, then adds its bias, so the two paths are bit-identical.
func matMulABTInto(out, a, b, bias *Tensor, m, k, n int) {
	var panel []float64
	nb := 0
	if useSIMD && n >= simdCols && k > 0 {
		nb = n - n%simdCols
		panel = getPanel(nb * k)
		packABT(panel, b.Data, k, nb)
	}
	if m*k*n < parallelThreshold || m == 1 {
		matMulABTRows(out, a, b, bias, panel, k, n, nb, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { matMulABTRows(out, a, b, bias, panel, k, n, nb, lo, hi) })
	}
	if panel != nil {
		putPanel(panel)
	}
}

// packABT lays b's first nb rows (b is n×k) out as nb/simdCols blocks of
// k×simdCols: block c, row p, lane l holds b[c·simdCols+l, p], so the
// kernel reads each block as one contiguous stream.
func packABT(dst, b []float64, k, nb int) {
	for j := 0; j < nb; j++ {
		blk := dst[(j-j%simdCols)*k+j%simdCols:]
		for p, v := range b[j*k : (j+1)*k] {
			blk[p*simdCols] = v
		}
	}
}

// matMulABTRows writes rows [lo,hi) of a·bᵀ (+bias) into out: columns
// [0,nb) through abtKernel16 over panel (its whole 4-row groups through
// abtKernel16AVX512 with useAVX512), the rest four at a time so arow
// stays register/L1-resident across four b-rows, each dot product
// accumulating p ascending into its own scalar.
func matMulABTRows(out, a, b, bias *Tensor, panel []float64, k, n, nb, lo, hi int) {
	if lo == hi {
		return
	}
	r4 := 0
	if useAVX512 {
		r4 = (hi - lo) &^ 3
	}
	for j := 0; j < nb; j += simdCols {
		var bj *float64
		if bias != nil {
			bj = &bias.Data[j]
		}
		if r4 > 0 {
			abtKernel16AVX512(&out.Data[lo*n+j], &a.Data[lo*k], &panel[j*k], bj, r4, k, n)
		}
		if r := lo + r4; r < hi {
			abtKernel16(&out.Data[r*n+j], &a.Data[r*k], &panel[j*k], bj, hi-r, k, n)
		}
	}
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k:][:k]
		orow := out.Data[i*n:][:n]
		j := nb
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k:][:k]
			b1 := b.Data[(j+1)*k:][:k]
			b2 := b.Data[(j+2)*k:][:k]
			b3 := b.Data[(j+3)*k:][:k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if bias != nil {
				s0 += bias.Data[j]
				s1 += bias.Data[j+1]
				s2 += bias.Data[j+2]
				s3 += bias.Data[j+3]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k:][:k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			if bias != nil {
				s += bias.Data[j]
			}
			orow[j] = s
		}
	}
}

// parallelRows splits [0,m) into contiguous chunks, one per worker, and runs
// fn on each chunk concurrently: every chunk but the last on a goroutine of
// its own, the last on the caller's.
func parallelRows(m int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		fn(0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	lo := 0
	for ; lo+chunk < m; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, lo+chunk)
	}
	fn(lo, m)
	wg.Wait()
}

// ParallelChunks splits [0,n) into contiguous element chunks across
// GOMAXPROCS goroutines and runs fn on each chunk. work is the estimated
// scalar operation count; below parallelThreshold (or on a single-CPU
// host) fn runs inline on the whole range, avoiding scheduling overhead on
// small problems. Because chunks are disjoint, any fn whose writes stay
// inside its chunk produces results independent of the worker count.
func ParallelChunks(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if work < parallelThreshold || runtime.GOMAXPROCS(0) <= 1 {
		fn(0, n)
		return
	}
	parallelRows(n, fn)
}

// AxpySharded computes dst[i] += Σ_k coeffs[k]·srcs[k][i] — the FedAvg-style
// weighted reduction — with the element range sharded across goroutines.
// Within each element the k-sum stays serial and ascending, so the result
// is byte-identical to the classic serial double loop (for k { for i {...} })
// regardless of worker count. Every src must have len(dst) elements and
// len(coeffs) must equal len(srcs).
func AxpySharded(dst []float64, coeffs []float64, srcs [][]float64) {
	reduceSharded(dst, coeffs, srcs, nil, false, 0)
}

// MeanSharded writes dst[i] = (Σ_k coeffs[k]·srcs[k][i]) / total — FedAvg's
// weighted mean — in one pass over dst: each shard walks its range in
// tiles of reduceTile elements, and a tile is cleared, gains every
// source's axpy in ascending k and is divided by total while it stays in
// L1. Each element thus sees the clear, double loop and divide of three
// serial passes, in their order, whatever the worker count. srcs and
// coeffs must be as for AxpySharded.
func MeanSharded(dst []float64, coeffs []float64, srcs [][]float64, total float64) {
	reduceSharded(dst, coeffs, srcs, nil, true, total)
}

// TileFill writes elements [lo, lo+len(tile)) of reduction source k into
// tile.
type TileFill func(k int, tile []float64, lo int)

// MeanTiles is MeanSharded over sources that are not all held as vectors:
// where srcs[k] is nil, fill supplies source k one tile at a time, into a
// scratch tile of the shard's own. Every filled tile is written before
// dst's tile is cleared, so fill may read dst itself; no vector in srcs
// may alias dst. The bits are MeanSharded's over the filled vectors.
func MeanTiles(dst []float64, coeffs []float64, srcs [][]float64, fill TileFill, total float64) {
	reduceSharded(dst, coeffs, srcs, fill, true, total)
}

// reduceTile is the element count of one reduction tile: 4 KiB of dst,
// which stays in L1 beside the source tiles streaming past it.
const reduceTile = 512

// reduceSharded checks the operands and runs reduceRange over dst, split
// across goroutines once the work reaches parallelThreshold. A nil src is
// fill's (MeanTiles).
func reduceSharded(dst []float64, coeffs []float64, srcs [][]float64, fill TileFill, mean bool, total float64) {
	if len(coeffs) != len(srcs) {
		panicAxpyArity(len(coeffs), len(srcs))
	}
	for k, s := range srcs {
		if len(s) != len(dst) && (s != nil || fill == nil) {
			panicAxpyLen(k, len(s), len(dst))
		}
	}
	if len(dst)*(len(srcs)+1) < parallelThreshold || runtime.GOMAXPROCS(0) <= 1 {
		reduceRange(dst, coeffs, srcs, fill, 0, len(dst), mean, total)
		return
	}
	parallelRows(len(dst), func(lo, hi int) { reduceRange(dst, coeffs, srcs, fill, lo, hi, mean, total) })
}

// reduceRange accumulates the k-sum for elements [lo,hi) a tile at a time,
// one axpy sweep per source in ascending k; with mean it clears each tile
// first and divides it by total last. The filled sources' tiles are all
// written before the clear, in one scratch tile each.
func reduceRange(dst []float64, coeffs []float64, srcs [][]float64, fill TileFill, lo, hi int, mean bool, total float64) {
	var scratch []float64
	if fill != nil {
		filled := 0
		for _, src := range srcs {
			if src == nil {
				filled++
			}
		}
		scratch = make([]float64, filled*reduceTile)
	}
	for t := lo; t < hi; t += reduceTile {
		d := dst[t:min(t+reduceTile, hi)]
		f := 0
		for k, src := range srcs {
			if src == nil {
				fill(k, scratch[f*reduceTile:][:len(d)], t)
				f++
			}
		}
		if mean {
			clear(d)
		}
		f = 0
		for k, src := range srcs {
			var s []float64
			if src != nil {
				s = src[t : t+len(d)]
			} else {
				s, f = scratch[f*reduceTile:][:len(d)], f+1
			}
			axpy(d, s, coeffs[k])
		}
		if mean {
			divide(d, total)
		}
	}
}

// divide computes o[j] /= d. With useSIMD the whole 4-lane groups run on
// divKernel and the last len(o)%4 on the loop; a division is exact per
// lane, so the bits agree.
func divide(o []float64, d float64) {
	j := 0
	if useSIMD && len(o) >= 4 {
		j = len(o) &^ 3
		divKernel(&o[0], d, j)
	}
	for ; j < len(o); j++ {
		o[j] /= d
	}
}

// Mix computes g[i] = (1−a)·g[i] + a·c[i], FedAT's commit mix, for i <
// len(g): each product rounded, then the sum, never a fused multiply-add,
// so every platform and both paths give the same bits. With useSIMD the
// whole 4-lane groups run on mixKernel and the last len(g)%4 on the loop.
// c must be at least as long as g.
func Mix(g, c []float64, a float64) {
	c = c[:len(g)]
	b := 1 - a
	j := 0
	if useSIMD && len(g) >= 4 {
		j = len(g) &^ 3
		mixKernel(&g[0], &c[0], b, a, j)
	}
	for ; j < len(g); j++ {
		g[j] = float64(b*g[j]) + float64(a*c[j])
	}
}
