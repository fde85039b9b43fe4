package tensor

import "fmt"

// ConvOpts describes a 2-D convolution: square kernel, symmetric stride and
// zero padding.
type ConvOpts struct {
	Stride  int
	Padding int
}

// ConvOutSize returns the output spatial size for input size in, kernel k,
// stride s, padding p.
func ConvOutSize(in, k, s, p int) int {
	if s < 1 {
		s = 1
	}
	return (in+2*p-k)/s + 1
}

// Im2Col unrolls input x (N,C,H,W) into a matrix of shape
// (N·outH·outW, C·kh·kw) so convolution becomes a matmul with the reshaped
// weight (outC, C·kh·kw).
func Im2Col(x *Tensor, kh, kw int, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	cols := New(n*oh*ow, c*kh*kw)
	xd, cd := x.Data, cols.Data
	rowLen := c * kh * kw
	parallelFor(n*oh*ow, func(rs, re int) {
		for r := rs; r < re; r++ {
			b := r / (oh * ow)
			rem := r % (oh * ow)
			oy := rem / ow
			ox := rem % ow
			dst := cd[r*rowLen : (r+1)*rowLen]
			di := 0
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*s - p + ky
					if iy < 0 || iy >= h {
						for kx := 0; kx < kw; kx++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowBase := base + iy*w
					for kx := 0; kx < kw; kx++ {
						ix := ox*s - p + kx
						if ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = xd[rowBase+ix]
						}
						di++
					}
				}
			}
		}
	})
	return cols
}

// Col2Im scatters a column matrix (as produced by Im2Col) back into an input
// gradient of shape (N,C,H,W), accumulating overlaps. It is the adjoint of
// Im2Col and is used by convolution backward passes.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw int, o ConvOpts) *Tensor {
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	out := New(n, c, h, w)
	cd, od := cols.Data, out.Data
	rowLen := c * kh * kw
	// Parallelise over batch: images don't overlap in the output buffer.
	parallelFor(n, func(bs, be int) {
		for b := bs; b < be; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					r := (b*oh+oy)*ow + ox
					src := cd[r*rowLen : (r+1)*rowLen]
					si := 0
					for ch := 0; ch < c; ch++ {
						base := (b*c + ch) * h * w
						for ky := 0; ky < kh; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								si += kw
								continue
							}
							rowBase := base + iy*w
							for kx := 0; kx < kw; kx++ {
								ix := ox*s - p + kx
								if ix >= 0 && ix < w {
									od[rowBase+ix] += src[si]
								}
								si++
							}
						}
					}
				}
			}
		}
	})
	return out
}

// The destination rule. Every function here whose name ends in Into computes
// into a tensor its caller supplies, shaped as the allocating form would have
// shaped its result, under one rule: a kernel writes every element of its
// destination and never reads it. What the destination held before — zeros
// from the allocator, the last request's activations, NaNs a test put there —
// cannot reach an answer, so a caller may hand the same memory back run after
// run (supernet.Workspace). The allocating forms are the Into forms over New:
// there is one implementation of each kernel.

// checkDst panics unless dst is the (n,c,h,w) tensor op is about to fill.
func checkDst(op string, dst *Tensor, n, c, h, w int) {
	if len(dst.Shape) != 4 || dst.Shape[0] != n || dst.Shape[1] != c || dst.Shape[2] != h || dst.Shape[3] != w || len(dst.Data) != n*c*h*w {
		panic(fmt.Sprintf("tensor: %s destination has shape %v, want [%d %d %d %d]", op, dst.Shape, n, c, h, w))
	}
}

// Conv2D computes a standard convolution of x (N,C,H,W) with weight
// (outC, C, kh, kw) and optional bias (outC), returning (N,outC,outH,outW).
// Every output element is one sum: taps in (channel, ky, kx) order from zero,
// a tap that falls in the padding contributing 0·w, bias added last. A nil
// bias adds nothing; adding a zero instead, as the matmul route this replaced
// did, could only change a sum of −0, and a sum that starts from +0 never is.
func Conv2D(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	s := max(o.Stride, 1)
	oh, ow := ConvOutSize(h, kh, s, o.Padding), ConvOutSize(w, kw, s, o.Padding)
	var cols *Tensor
	if !pointwise(kh, kw, s, o.Padding) {
		cols = New(n, c*kh*kw, oh, ow)
	}
	out := New(n, outC, oh, ow)
	Conv2DInto(out, cols, x, weight, bias, o)
	return out
}

func pointwise(kh, kw, s, p int) bool { return kh == 1 && kw == 1 && s == 1 && p == 0 }

// Conv2DInto is Conv2D into dst. There is one convolution kernel, conv1x1: a
// pointwise convolution (1×1, stride 1, no padding — most of the MACs of an
// inverted-bottleneck network) is that kernel on x; a k×k one first unrolls x
// into cols, (N, C·kh·kw, outH, outW) and only needed then, one plane per tap,
// and is the same kernel on cols with the weight read as outC × C·kh·kw.
func Conv2DInto(dst, cols, x, weight, bias *Tensor, o ConvOpts) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, wc, kh, kw := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2D channels %d != weight %d", c, wc))
	}
	s := max(o.Stride, 1)
	if pointwise(kh, kw, s, o.Padding) {
		conv1x1Into(dst, x, weight.Data, c, outC, bias)
		return
	}
	checkDst("Conv2D columns", cols, n, c*kh*kw, ConvOutSize(h, kh, s, o.Padding), ConvOutSize(w, kw, s, o.Padding))
	planarCols(cols, x, kh, kw, s, o.Padding)
	conv1x1Into(dst, cols, weight.Data, c*kh*kw, outC, bias)
}

// planarCols unrolls x (N,C,H,W) into cols (N, C·kh·kw, oh, ow): plane
// (ch·kh+ky)·kw+kx holds, for every output position, the input element tap
// (ky,kx) of channel ch reads there, or 0 where the tap falls in the padding.
// It is Im2Col transposed, which is the layout conv1x1 vectorises over.
func planarCols(cols, x *Tensor, kh, kw, s, p int) {
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := cols.Shape[2], cols.Shape[3]
	taps := kh * kw
	xd, cd := x.Data, cols.Data
	ParallelByCost(x.Shape[0]*c*taps, oh*ow, func(rs, re int) {
		for r := rs; r < re; r++ {
			ky, kx := r%taps/kw, r%kw
			in := xd[r/taps*h*w:][:h*w]
			dst := cd[r*oh*ow:][:oh*ow]
			// Outputs [oxLo, oxHi) read column ox·s−p+kx inside the plane.
			oxLo, oxHi := 0, 0
			if last := w - 1 + p - kx; last >= 0 {
				oxLo = min(max((p-kx+s-1)/s, 0), ow)
				oxHi = max(min(last/s+1, ow), oxLo)
			}
			for oy := 0; oy < oh; oy++ {
				row := dst[oy*ow:][:ow]
				iy := oy*s - p + ky
				if iy < 0 || iy >= h {
					clear(row)
					continue
				}
				clear(row[:oxLo])
				src := in[iy*w:][:w]
				switch {
				case oxLo == oxHi: // the tap is in the padding all along the row
				case s == 1:
					copy(row[oxLo:oxHi], src[oxLo-p+kx:])
				default:
					from := src[oxLo*s-p+kx:]
					ox := oxLo
					if s == 2 {
						ox += stride2Vec(row[oxLo:oxHi], from)
					}
					for ; ox < oxHi; ox++ {
						row[ox] = from[(ox-oxLo)*s]
					}
				}
				clear(row[oxHi:])
			}
		}
	})
}

// Conv1x1 computes a pointwise convolution of x (N,C,H,W) with the top-left
// outC×C block of weight (≥outC, ≥C, 1, 1), read in place through the
// weight's row stride: an elastic layer runs a narrower submodel against the
// shared weight without copying the slice out first. bias, when non-nil,
// supplies its first outC entries.
func Conv1x1(x, weight, bias *Tensor, outC int) *Tensor {
	out := New(x.Shape[0], outC, x.Shape[2], x.Shape[3])
	Conv1x1Into(out, x, weight, bias, outC)
	return out
}

// Conv1x1Into is Conv1x1 into dst (N,outC,H,W).
func Conv1x1Into(dst, x, weight, bias *Tensor, outC int) {
	c := x.Shape[1]
	if weight.Shape[0] < outC || weight.Shape[1] < c || weight.Shape[2] != 1 || weight.Shape[3] != 1 {
		panic(fmt.Sprintf("tensor: Conv1x1 wants a %dx%d block of a 1x1 weight, have %v", outC, c, weight.Shape))
	}
	conv1x1Into(dst, x, weight.Data, weight.Shape[1], outC, bias)
}

// conv1x1Block is the number of plane elements one conv1x1 work item covers:
// four input rows and two output rows of that length sit in L1 together, and
// a single large plane still splits into enough items to occupy every worker.
const conv1x1Block = 1024

// conv1x1Into is the pointwise kernel: dst[b,oc,i] = Σ_ch wd[oc·wstride+ch] ·
// x[b,ch,i], channels ascending from zero, bias added last. It is
// register-blocked two output channels by four input channels: one pass over
// a block of the plane reads four input rows once and advances two output
// rows by four terms each, so the inner loop does sixteen flops per eight
// memory operations with two independent dependency chains. Every output
// element still receives its terms one at a time in channel order, so the
// blocking — and the split of the work across goroutines, which never divides
// one element's sum — leaves each result bit-identical to the plain loop.
func conv1x1Into(dst, x *Tensor, wd []float32, wstride, outC int, bias *Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	checkDst("Conv1x1", dst, n, outC, h, w)
	plane := h * w
	xd, od := x.Data, dst.Data
	nblk := (plane + conv1x1Block - 1) / conv1x1Block
	npair := (outC + 1) / 2
	ParallelByCost(n*nblk*npair, 2*c*min(plane, conv1x1Block), func(rs, re int) {
		for r := rs; r < re; r++ {
			// Pairs vary fastest: consecutive items reuse one block of input
			// rows against successive weight rows.
			oc := r % npair * 2
			blk := r / npair % nblk
			b := r / (npair * nblk)
			lo := blk * conv1x1Block
			hi := min(lo+conv1x1Block, plane)
			src := xd[b*c*plane : (b+1)*c*plane]
			d0 := od[(b*outC+oc)*plane+lo : (b*outC+oc)*plane+hi]
			w0 := wd[oc*wstride : oc*wstride+c]
			// The vector kernel takes a block of at least one register — all
			// of it — and the portable loop what is left: a block narrower
			// than a register, or everything without AVX2.
			if oc+1 == outC {
				if done := conv1x1RowVec(d0, src, plane, lo, w0); done < len(d0) {
					conv1x1Row(d0[done:], src, plane, lo+done, w0)
				}
			} else {
				d1 := od[(b*outC+oc+1)*plane+lo : (b*outC+oc+1)*plane+hi]
				w1 := wd[(oc+1)*wstride : (oc+1)*wstride+c]
				if done := conv1x1PairVec(d0, d1, src, plane, lo, w0, w1); done < len(d0) {
					conv1x1Pair(d0[done:], d1[done:], src, plane, lo+done, w0, w1)
				}
				if bias != nil {
					addScalar(d1, bias.Data[oc+1])
				}
			}
			if bias != nil {
				addScalar(d0, bias.Data[oc])
			}
		}
	})
}

// conv1x1Pair computes two output rows over every input channel of one
// image: it clears them — the sums start from zero whatever the destination
// held — and accumulates channel by channel. src holds the image's channel
// planes, each `plane` long; the rows cover plane elements [lo, lo+len(d0)).
func conv1x1Pair(d0, d1, src []float32, plane, lo int, w0, w1 []float32) {
	n := len(d0)
	d1 = d1[:n]
	clear(d0)
	clear(d1)
	w1 = w1[:len(w0)]
	ch := 0
	for ; ch+4 <= len(w0); ch += 4 {
		x0 := src[ch*plane+lo:][:n]
		x1 := src[(ch+1)*plane+lo:][:n]
		x2 := src[(ch+2)*plane+lo:][:n]
		x3 := src[(ch+3)*plane+lo:][:n]
		a0, a1, a2, a3 := w0[ch], w0[ch+1], w0[ch+2], w0[ch+3]
		b0, b1, b2, b3 := w1[ch], w1[ch+1], w1[ch+2], w1[ch+3]
		for i := range d0 {
			v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
			s := d0[i]
			s += a0 * v0
			s += a1 * v1
			s += a2 * v2
			s += a3 * v3
			d0[i] = s
			t := d1[i]
			t += b0 * v0
			t += b1 * v1
			t += b2 * v2
			t += b3 * v3
			d1[i] = t
		}
	}
	for ; ch < len(w0); ch++ {
		xc := src[ch*plane+lo:][:n]
		a, b := w0[ch], w1[ch]
		for i := range d0 {
			v := xc[i]
			d0[i] += a * v
			d1[i] += b * v
		}
	}
}

// conv1x1Row is conv1x1Pair for the last output channel of an odd count.
func conv1x1Row(d0, src []float32, plane, lo int, w0 []float32) {
	n := len(d0)
	clear(d0)
	ch := 0
	for ; ch+4 <= len(w0); ch += 4 {
		x0 := src[ch*plane+lo:][:n]
		x1 := src[(ch+1)*plane+lo:][:n]
		x2 := src[(ch+2)*plane+lo:][:n]
		x3 := src[(ch+3)*plane+lo:][:n]
		a0, a1, a2, a3 := w0[ch], w0[ch+1], w0[ch+2], w0[ch+3]
		for i := range d0 {
			s := d0[i]
			s += a0 * x0[i]
			s += a1 * x1[i]
			s += a2 * x2[i]
			s += a3 * x3[i]
			d0[i] = s
		}
	}
	for ; ch < len(w0); ch++ {
		xc := src[ch*plane+lo:][:n]
		a := w0[ch]
		for i := range d0 {
			d0[i] += a * xc[i]
		}
	}
}

func addScalar(d []float32, v float32) {
	for i := range d {
		d[i] += v
	}
}

// Conv2DNaive is a direct reference implementation used by tests to validate
// Conv2D. It is O(N·outC·oh·ow·C·kh·kw) with no parallelism.
func Conv2DNaive(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	out := New(n, outC, oh, ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					if bias != nil {
						acc = bias.Data[oc]
					}
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*s - p + kx
								if ix < 0 || ix >= w {
									continue
								}
								acc += x.At(b, ch, iy, ix) * weight.At(oc, ch, ky, kx)
							}
						}
					}
					out.Set(acc, b, oc, oy, ox)
				}
			}
		}
	}
	return out
}

// DepthwiseConv2D convolves each channel of x (N,C,H,W) with its own kernel
// from weight (C, 1, kh, kw), plus optional bias (C).
//
// Each output element is bias + Σ taps in (ky, kx) order over the taps that
// fall inside the plane. Outputs whose every kx tap is inside — the interior,
// and the middle of the rows above and below it — take a loop with no per-tap
// bounds test (unrolled for 3×3) over the kernel rows that are inside; the
// side columns of the interior rows take the kernel columns that are inside,
// eight rows at a time where there is a vector kernel for it; the corners, and
// the side columns otherwise, keep the tested loop (dwBorder). Same taps, same
// order, so the split changes no bit.
func DepthwiseConv2D(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	kh, kw := weight.Shape[2], weight.Shape[3]
	s := max(o.Stride, 1)
	out := New(x.Shape[0], x.Shape[1], ConvOutSize(x.Shape[2], kh, s, o.Padding), ConvOutSize(x.Shape[3], kw, s, o.Padding))
	DepthwiseConv2DInto(out, x, weight, bias, o)
	return out
}

// DepthwiseConv2DInto is DepthwiseConv2D into dst (N,C,outH,outW).
func DepthwiseConv2DInto(dst, x, weight, bias *Tensor, o ConvOpts) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if weight.Shape[0] != c {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D channels %d != weight %d", c, weight.Shape[0]))
	}
	kh, kw := weight.Shape[2], weight.Shape[3]
	s, p := max(o.Stride, 1), o.Padding
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	checkDst("DepthwiseConv2D", dst, n, c, oh, ow)
	// Interior: oy·s−p ≥ 0 and oy·s−p+kh ≤ h (likewise in x). The columns
	// [oxLo, oxHi) have every kx tap inside the plane on every row, interior
	// or not; a plane narrower than the kernel has none, and then no interior.
	oyLo, oyHi := interiorRange(h, kh, s, p, oh)
	oxLo, oxHi := interiorRange(w, kw, s, p, ow)
	if oxLo == oxHi {
		oyLo, oyHi, oxLo, oxHi = 0, 0, 0, 0
	}
	xd, wd, od := x.Data, weight.Data, dst.Data
	ParallelByCost(n*c, oh*ow*kh*kw, func(rs, re int) {
		for r := rs; r < re; r++ {
			ch := r % c
			var bv float32
			if bias != nil {
				bv = bias.Data[ch]
			}
			in := xd[r*h*w : (r+1)*h*w]
			ker := wd[ch*kh*kw : (ch+1)*kh*kw]
			out := od[r*oh*ow : (r+1)*oh*ow]
			// The vector kernels take the plane's whole interior in one call, or
			// none of it, and likewise the side columns of the interior rows.
			vec := oyLo < oyHi && dwInteriorVec(out[oyLo*ow+oxLo:], ow, in[(oyLo*s-p)*w+oxLo*s-p:], w,
				oyHi-oyLo, oxHi-oxLo, ker, kh, kw, s, bv)
			sides := oyLo < oyHi && dwSidesVec(out, ow, in, w, ker, kh, kw, s, p, oyLo, oyHi, oxLo, oxHi, bv)
			for oy := 0; oy < oh; oy++ {
				if vec && sides && oy == oyLo {
					oy = oyHi - 1 // the interior rows are done
					continue
				}
				row := out[oy*ow : (oy+1)*ow]
				// Kernel rows [ky0, ky1) fall inside the plane: all of them on
				// an interior row, fewer on the rows above and below, where the
				// middle columns are an interior run of a shorter kernel — the
				// same taps in the same order. A row no kernel row reaches is
				// all border (every output is the bias).
				iy0 := oy*s - p
				ky0, ky1 := max(0, -iy0), min(kh, h-iy0)
				if ky1 <= ky0 {
					dwBorder(row, 0, ow, in, h, w, ker, kh, kw, oy, s, p, bv)
					continue
				}
				interior := oy >= oyLo && oy < oyHi
				if !(sides && interior) {
					dwBorder(row, 0, oxLo, in, h, w, ker, kh, kw, oy, s, p, bv)
					dwBorder(row, oxHi, ow, in, h, w, ker, kh, kw, oy, s, p, bv)
				}
				if oxLo < oxHi && !(vec && interior) {
					mid, taps, k := row[oxLo:oxHi], in[(iy0+ky0)*w+oxLo*s-p:], ker[ky0*kw:ky1*kw]
					switch {
					case !interior && dwInteriorVec(mid, ow, taps, w, 1, len(mid), k, ky1-ky0, kw, s, bv):
					case ky1-ky0 == 3 && kw == 3:
						dwInterior3(mid, taps, w, k, s, bv)
					default:
						dwInterior(mid, taps, w, k, ky1-ky0, kw, s, bv)
					}
				}
			}
		}
	})
}

// interiorRange returns the half-open range of output positions, clamped to
// [0, out), whose k-wide window lies wholly inside an axis of length in.
func interiorRange(in, k, s, p, out int) (lo, hi int) {
	lo = min((p+s-1)/s, out)
	if in+p >= k {
		hi = min((in+p-k)/s+1, out)
	}
	return lo, max(hi, lo)
}

// dwBorder computes outputs [ox0, ox1) of output row oy over the taps that
// fall inside the plane: kernel rows [ky0, ky1) for the whole row, kernel
// columns [kx0, kx1) per output — the taps a per-tap edge test would keep, in
// the same order.
func dwBorder(row []float32, ox0, ox1 int, in []float32, h, w int, ker []float32, kh, kw, oy, s, p int, bv float32) {
	iy0 := oy*s - p
	ky0, ky1 := max(0, -iy0), min(kh, h-iy0)
	for ox := ox0; ox < ox1; ox++ {
		ix0 := ox*s - p
		kx0 := max(0, -ix0)
		kx1 := max(min(kw, w-ix0), kx0)
		acc := bv
		for ky := ky0; ky < ky1; ky++ {
			taps := in[(iy0+ky)*w+ix0+kx0 : (iy0+ky)*w+ix0+kx1]
			kr := ker[ky*kw+kx0:][:len(taps)]
			for i, v := range taps {
				acc += v * kr[i]
			}
		}
		row[ox] = acc
	}
}

// dwInterior computes a run of interior outputs of one row. in starts at the
// top-left tap of the first output; w is the plane's row length.
func dwInterior(row, in []float32, w int, ker []float32, kh, kw, s int, bv float32) {
	for ox := range row {
		acc := bv
		for ky := 0; ky < kh; ky++ {
			taps := in[ky*w+ox*s:][:kw]
			kr := ker[ky*kw:][:kw]
			for kx, v := range taps {
				acc += v * kr[kx]
			}
		}
		row[ox] = acc
	}
}

// dwInterior3 is dwInterior with the nine taps of a 3×3 kernel unrolled.
func dwInterior3(row, in []float32, w int, ker []float32, s int, bv float32) {
	k := (*[9]float32)(ker)
	k0, k1, k2, k3, k4, k5, k6, k7, k8 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
	r0, r1, r2 := in, in[w:], in[2*w:]
	for ox := range row {
		a := (*[3]float32)(r0[ox*s:])
		b := (*[3]float32)(r1[ox*s:])
		c := (*[3]float32)(r2[ox*s:])
		acc := bv
		acc += a[0] * k0
		acc += a[1] * k1
		acc += a[2] * k2
		acc += b[0] * k3
		acc += b[1] * k4
		acc += b[2] * k5
		acc += c[0] * k6
		acc += c[1] * k7
		acc += c[2] * k8
		row[ox] = acc
	}
}

// AvgPoolGlobal reduces (N,C,H,W) to (N,C) by averaging each channel plane:
// the plane's elements added first to last into one float32 sum from zero,
// then one divide. A work item is eight planes, which the vector kernel sums
// as eight lanes; the loop below finishes each plane's last elements, and does
// every plane without AVX2.
func AvgPoolGlobal(x *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c)
	plane := h * w
	hw := float32(plane)
	ParallelByCost((n*c+7)/8, 8*plane, func(gs, ge int) {
		for r0 := 8 * gs; r0 < min(8*ge, n*c); r0 += 8 {
			sums := out.Data[r0:min(r0+8, n*c)]
			done := sumRowsVec(sums, x.Data[r0*plane:], plane, plane)
			for j := range sums {
				s := sums[j]
				for _, v := range x.Data[(r0+j)*plane+done : (r0+j+1)*plane] {
					s += v
				}
				sums[j] = s / hw
			}
		}
	})
	return out
}

// MaxPool2D applies k×k max pooling with stride s.
func MaxPool2D(x *Tensor, k, s int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if s < 1 {
		s = k
	}
	oh := (h-k)/s + 1
	ow := (w-k)/s + 1
	out := New(n, c, oh, ow)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			in := x.Data[r*h*w : (r+1)*h*w]
			dst := out.Data[r*oh*ow : (r+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					m := float32(math32NegInf)
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							v := in[(oy*s+ky)*w+ox*s+kx]
							if v > m {
								m = v
							}
						}
					}
					dst[oy*ow+ox] = m
				}
			}
		}
	})
	return out
}

const math32NegInf = float32(-3.4e38)

// Pad2D zero-pads the spatial dims of x (N,C,H,W) by p on every side.
func Pad2D(x *Tensor, p int) *Tensor {
	if p == 0 {
		return x.Clone()
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, h+2*p, w+2*p)
	ow := w + 2*p
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := x.Data[r*h*w : (r+1)*h*w]
			dstBase := r * (h + 2*p) * ow
			for y := 0; y < h; y++ {
				copy(out.Data[dstBase+(y+p)*ow+p:dstBase+(y+p)*ow+p+w], src[y*w:(y+1)*w])
			}
		}
	})
	return out
}

// CropSpatial extracts the spatial window [y0,y0+ch)×[x0,x0+cw) from x
// (N,C,H,W), returning (N,C,ch,cw). Out-of-range regions read as zero, which
// lets callers implement FDSP zero-padded tiles directly.
func CropSpatial(x *Tensor, y0, x0, ch, cw int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, ch, cw)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := x.Data[r*h*w : (r+1)*h*w]
			dst := out.Data[r*ch*cw : (r+1)*ch*cw]
			for y := 0; y < ch; y++ {
				iy := y0 + y
				if iy < 0 || iy >= h {
					continue
				}
				for xx := 0; xx < cw; xx++ {
					ix := x0 + xx
					if ix < 0 || ix >= w {
						continue
					}
					dst[y*cw+xx] = src[iy*w+ix]
				}
			}
		}
	})
	return out
}

// PasteSpatial writes tile (N,C,th,tw) into dst (N,C,H,W) at offset (y0,x0),
// clipping at the borders. It is the inverse of CropSpatial for in-range
// regions and is used to reassemble spatially partitioned outputs.
func PasteSpatial(dst, tile *Tensor, y0, x0 int) {
	n, c, h, w := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	th, tw := tile.Shape[2], tile.Shape[3]
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := tile.Data[r*th*tw : (r+1)*th*tw]
			d := dst.Data[r*h*w : (r+1)*h*w]
			for y := 0; y < th; y++ {
				dy := y0 + y
				if dy < 0 || dy >= h {
					continue
				}
				for x := 0; x < tw; x++ {
					dx := x0 + x
					if dx < 0 || dx >= w {
						continue
					}
					d[dy*w+dx] = src[y*tw+x]
				}
			}
		}
	})
}

// BilinearResize resizes x (N,C,H,W) to (N,C,outH,outW) with bilinear
// interpolation; used for elastic input resolution.
func BilinearResize(x *Tensor, outH, outW int) *Tensor {
	out := New(x.Shape[0], x.Shape[1], outH, outW)
	BilinearResizeInto(out, x, nil)
	return out
}

// ResizeAxes is the memory BilinearResizeInto keeps its per-axis sample tables
// in: where along an axis each output position reads, which is the same for
// every row of every channel. The zero value is ready to use; a caller that
// resizes run after run keeps one (supernet.Workspace) and the tables are
// rebuilt in place per call.
type ResizeAxes struct {
	idx  []int32
	frac []float32
}

// resizeTaps is the table of one axis: output position o reads input
// positions lo[o] and hi[o] and takes frac[o] of the way from the first to
// the second.
type resizeTaps struct {
	lo, hi []int32
	frac   []float32
}

// tables returns the column and row taps of a resize from (h, w) to
// (outH, outW).
func (a *ResizeAxes) tables(h, w, outH, outW int) (cols, rows resizeTaps) {
	if n := outW + outH; cap(a.frac) < n {
		a.idx, a.frac = make([]int32, 2*n), make([]float32, n)
	}
	cols = resizeTaps{a.idx[:outW], a.idx[outW:][:outW], a.frac[:outW]}
	rows = resizeTaps{a.idx[2*outW:][:outH], a.idx[2*outW+outH:][:outH], a.frac[outW:][:outH]}
	cols.fill(w)
	rows.fill(h)
	return cols, rows
}

// fill computes the taps of an axis of length in resized to len(t.frac):
// output o samples at (o+½)·in/out − ½, clamped to the axis at both ends.
func (t resizeTaps) fill(in int) {
	scale := float32(in) / float32(len(t.frac))
	for o := range t.frac {
		f := (float32(o)+0.5)*scale - 0.5
		i0 := int(f)
		if f < 0 {
			f, i0 = 0, 0
		}
		t.lo[o], t.hi[o], t.frac[o] = int32(i0), int32(min(i0+1, in-1)), f-float32(i0)
	}
}

// BilinearResizeInto is BilinearResize to the spatial size of dst
// (N,C,outH,outW); at x's own size it is a copy. Each output is
// top + (bot−top)·wy with top and bot the two rows' v0 + (v1−v0)·wx. axes
// holds the tables between calls; nil allocates them.
func BilinearResizeInto(out, x *Tensor, axes *ResizeAxes) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := out.Shape[2], out.Shape[3]
	checkDst("BilinearResize", out, n, c, outH, outW)
	if outH == h && outW == w {
		copy(out.Data, x.Data)
		return
	}
	if axes == nil {
		axes = new(ResizeAxes)
	}
	cols, rows := axes.tables(h, w, outH, outW)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := x.Data[r*h*w : (r+1)*h*w]
			dst := out.Data[r*outH*outW : (r+1)*outH*outW]
			for oy, wy := range rows.frac {
				row := dst[oy*outW:][:outW]
				r0, r1 := src[int(rows.lo[oy])*w:][:w], src[int(rows.hi[oy])*w:][:w]
				// The vector kernel takes a row of at least one register, whole.
				if !resizeRowVec(row, r0, r1, cols, wy) {
					resizeRow(row, r0, r1, cols, wy)
				}
			}
		}
	})
}

// resizeRow computes one output row from input rows r0 and r1.
func resizeRow(dst, r0, r1 []float32, cols resizeTaps, wy float32) {
	for ox, wx := range cols.frac {
		lo, hi := cols.lo[ox], cols.hi[ox]
		v00, v01 := r0[lo], r0[hi]
		v10, v11 := r1[lo], r1[hi]
		top := v00 + (v01-v00)*wx
		bot := v10 + (v11-v10)*wx
		dst[ox] = top + (bot-top)*wy
	}
}
