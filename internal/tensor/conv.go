package tensor

// ConvOutSize returns the output spatial size of a convolution or pooling
// with the given input size, kernel size, stride, and symmetric padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2ColInto lowers x into dst, reusing dst's storage. dst must have shape
// (N*OH*OW, C*KH*KW); every element (including padding zeros) is written,
// so dst's prior contents do not matter.
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) {
	oh, ow, colW := im2ColDims(x, kh, kw, stride, pad)
	rows := x.shape[0] * oh * ow
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != colW {
		panicConvDst("Im2ColInto", dst, rows, colW)
	}
	if pad == 0 {
		im2ColValid(dst, x, kh, kw, stride, oh, ow)
		return
	}
	im2ColInto(dst, x, kh, kw, stride, pad, oh, ow)
}

func im2ColDims(x *Tensor, kh, kw, stride, pad int) (oh, ow, colW int) {
	if x.Rank() != 4 {
		panicConvRank("Im2ColInto", x)
	}
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	oh = ConvOutSize(h, kh, stride, pad)
	ow = ConvOutSize(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panicIm2ColEmpty(x, kh, kw, stride, pad)
	}
	return oh, ow, c * kh * kw
}

// im2ColInto writes every receptive field of x into out, including explicit
// zeros at padded positions so out may hold stale data on entry.
func im2ColInto(out, x *Tensor, kh, kw, stride, pad, oh, ow int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := out.Data[((img*oh+oy)*ow+ox)*colW:][:colW]
				idx := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							for kx := 0; kx < kw; kx++ {
								row[idx] = 0
								idx++
							}
							continue
						}
						rowBase := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride - pad + kx
							if ix >= 0 && ix < w {
								row[idx] = x.Data[rowBase+ix]
							} else {
								row[idx] = 0
							}
							idx++
						}
					}
				}
			}
		}
	}
}

// im2ColValid is im2ColInto for pad == 0, where every window lies inside
// the image: each kernel row is one run of kw input values, copied without
// a bounds branch per element.
func im2ColValid(out, x *Tensor, kh, kw, stride, oh, ow int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := out.Data[((img*oh+oy)*ow+ox)*colW:][:colW]
				origin := (img*c*h+oy*stride)*w + ox*stride
				idx := 0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						dst := row[idx:][:kw]
						src := x.Data[origin+(ch*h+ky)*w:][:kw]
						for kx := range dst {
							dst[kx] = src[kx]
						}
						idx += kw
					}
				}
			}
		}
	}
}

// Col2ImInto scatters cols into dst, reusing dst's storage. dst must have
// shape (N, C, H, W); it is zeroed before accumulation.
func Col2ImInto(dst, cols *Tensor, kh, kw, stride, pad int) {
	if dst.Rank() != 4 {
		panicConvRank("Col2ImInto", dst)
	}
	n, c, h, w := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	colW := c * kh * kw
	if cols.Rank() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != colW {
		panicCol2ImShape("Col2ImInto", cols, n*oh*ow, colW)
	}
	dst.Zero()
	if pad == 0 {
		col2ImValid(dst, cols, n, c, h, w, kh, kw, stride, oh, ow)
		return
	}
	col2ImInto(dst, cols, n, c, h, w, kh, kw, stride, pad, oh, ow)
}

// col2ImInto adds every row of cols back onto its receptive field in out,
// skipping padded positions.
func col2ImInto(out, cols *Tensor, n, c, h, w, kh, kw, stride, pad, oh, ow int) {
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((img*oh+oy)*ow+ox)*colW:][:colW]
				idx := 0
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							idx += kw
							continue
						}
						rowBase := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride - pad + kx
							if ix >= 0 && ix < w {
								out.Data[rowBase+ix] += row[idx]
							}
							idx++
						}
					}
				}
			}
		}
	}
}

// col2ImValid is col2ImInto for pad == 0. Pixels are visited in ascending
// order, as there, so each input element sums its contributions in the
// same order and every bit matches.
func col2ImValid(out, cols *Tensor, n, c, h, w, kh, kw, stride, oh, ow int) {
	colW := c * kh * kw
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((img*oh+oy)*ow+ox)*colW:][:colW]
				origin := (img*c*h+oy*stride)*w + ox*stride
				idx := 0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						dst := out.Data[origin+(ch*h+ky)*w:][:kw]
						src := row[idx:][:kw]
						for kx := range dst {
							dst[kx] += src[kx]
						}
						idx += kw
					}
				}
			}
		}
	}
}

// MaxPool2DInto pools x into dst, reusing dst's storage and the arg index
// buffer (grown when too small). dst must have shape (N, C, OH, OW); it
// returns the argmax slice, which aliases arg when it had capacity.
func MaxPool2DInto(dst *Tensor, arg []int, x *Tensor, size, stride int) []int {
	if x.Rank() != 4 {
		panicConvRank("MaxPool2DInto", x)
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := ConvOutSize(h, size, stride, 0)
	ow := ConvOutSize(w, size, stride, 0)
	if dst.Rank() != 4 || dst.shape[0] != n || dst.shape[1] != c || dst.shape[2] != oh || dst.shape[3] != ow {
		panicConvDst("MaxPool2DInto", dst, n, c, oh, ow)
	}
	if cap(arg) < dst.Size() {
		arg = make([]int, dst.Size())
	}
	arg = arg[:dst.Size()]
	maxPool2DInto(dst, arg, x, size, stride, oh, ow)
	return arg
}

func maxPool2DInto(out *Tensor, arg []int, x *Tensor, size, stride, oh, ow int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oi := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			chBase := (img*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := chBase + (oy*stride)*w + ox*stride
					best := x.Data[bestIdx]
					for ky := 0; ky < size; ky++ {
						rowBase := chBase + (oy*stride+ky)*w
						for kx := 0; kx < size; kx++ {
							idx := rowBase + ox*stride + kx
							if x.Data[idx] > best {
								best, bestIdx = x.Data[idx], idx
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bestIdx
					oi++
				}
			}
		}
	}
}

// MaxUnpool2DInto scatters grad into dst (which must have the pooling
// input's shape), reusing dst's storage. dst is zeroed first.
func MaxUnpool2DInto(dst, grad *Tensor, arg []int) {
	dst.Zero()
	for i, g := range grad.Data {
		dst.Data[arg[i]] += g
	}
}
