// Package nn provides the neural-network building blocks used by both the
// one-shot NAS supernet (stage 1) and the policy networks (stage 2):
// functional forward/backward ops (convolution, linear, batch norm,
// activations, pooling, softmax cross-entropy), trainable parameters, and
// SGD/Adam optimizers.
//
// Ops are deliberately functional — forward returns the output plus whatever
// cache the matching backward needs — because the supernet executes *sliced*
// views of shared weights (elastic width/kernel/depth) and must scatter
// gradients back into the full parameter tensors itself.
package nn

import (
	"math"

	"murmuration/internal/tensor"
)

// ConvCache holds forward-pass state needed by ConvBwd.
type ConvCache struct {
	X    *tensor.Tensor
	W    *tensor.Tensor
	Opts tensor.ConvOpts
}

// ConvFwd computes a 2-D convolution and returns the output plus the cache
// for the backward pass. x is (N,C,H,W), w is (outC,C,kh,kw), b optional.
// The forward is tensor.Conv2D, the kernels inference runs; the im2col matrix
// the weight gradient needs is ConvBwd's to build.
func ConvFwd(x, w, b *tensor.Tensor, o tensor.ConvOpts) (*tensor.Tensor, *ConvCache) {
	return tensor.Conv2D(x, w, b, o), &ConvCache{X: x, W: w, Opts: o}
}

// ConvBwd back-propagates dy (N,outC,oh,ow) through the convolution and
// returns (dx, dw, db).
func ConvBwd(dy *tensor.Tensor, c *ConvCache) (dx, dw, db *tensor.Tensor) {
	n, inC, h, w := c.X.Shape[0], c.X.Shape[1], c.X.Shape[2], c.X.Shape[3]
	outC, kh, kw := c.W.Shape[0], c.W.Shape[2], c.W.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]

	// dy reshaped to (N·oh·ow, outC), matching the im2col row order.
	dyMat := tensor.New(n*oh*ow, outC)
	for bi := 0; bi < n; bi++ {
		for oc := 0; oc < outC; oc++ {
			src := dy.Data[(bi*outC+oc)*oh*ow : (bi*outC+oc+1)*oh*ow]
			for i, v := range src {
				dyMat.Data[(bi*oh*ow+i)*outC+oc] = v
			}
		}
	}

	// db = column sums of dyMat.
	db = tensor.New(outC)
	for r := 0; r < n*oh*ow; r++ {
		row := dyMat.Data[r*outC : (r+1)*outC]
		for oc, v := range row {
			db.Data[oc] += v
		}
	}

	// dw = dyMatᵀ · cols, reshaped to the weight shape.
	cols := tensor.Im2Col(c.X, kh, kw, c.Opts)
	dwMat := tensor.MatMulTransA(dyMat, cols) // (outC, C·kh·kw)
	dw = dwMat.Reshape(outC, inC, kh, kw)

	// dcols = dyMat · wmat, then scatter with Col2Im.
	wmat := c.W.Reshape(outC, inC*kh*kw)
	dcols := tensor.MatMul(dyMat, wmat)
	dx = tensor.Col2Im(dcols, n, inC, h, w, kh, kw, c.Opts)
	return dx, dw, db
}

// DWConvCache holds state for DepthwiseConvBwd.
type DWConvCache struct {
	X    *tensor.Tensor
	W    *tensor.Tensor
	Opts tensor.ConvOpts
}

// DepthwiseConvFwd computes a depthwise convolution; w is (C,1,kh,kw).
func DepthwiseConvFwd(x, w, b *tensor.Tensor, o tensor.ConvOpts) (*tensor.Tensor, *DWConvCache) {
	y := tensor.DepthwiseConv2D(x, w, b, o)
	return y, &DWConvCache{X: x, W: w, Opts: o}
}

// DepthwiseConvBwd back-propagates through a depthwise convolution.
func DepthwiseConvBwd(dy *tensor.Tensor, c *DWConvCache) (dx, dw, db *tensor.Tensor) {
	n, ch, h, w := c.X.Shape[0], c.X.Shape[1], c.X.Shape[2], c.X.Shape[3]
	kh, kw := c.W.Shape[2], c.W.Shape[3]
	s, p := c.Opts.Stride, c.Opts.Padding
	if s < 1 {
		s = 1
	}
	oh, ow := dy.Shape[2], dy.Shape[3]
	dx = tensor.New(n, ch, h, w)
	dw = tensor.New(ch, 1, kh, kw)
	db = tensor.New(ch)
	for bi := 0; bi < n; bi++ {
		for cc := 0; cc < ch; cc++ {
			xPlane := c.X.Data[(bi*ch+cc)*h*w : (bi*ch+cc+1)*h*w]
			dxPlane := dx.Data[(bi*ch+cc)*h*w : (bi*ch+cc+1)*h*w]
			dyPlane := dy.Data[(bi*ch+cc)*oh*ow : (bi*ch+cc+1)*oh*ow]
			ker := c.W.Data[cc*kh*kw : (cc+1)*kh*kw]
			dker := dw.Data[cc*kh*kw : (cc+1)*kh*kw]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dyPlane[oy*ow+ox]
					if g == 0 {
						continue
					}
					db.Data[cc] += g
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
							dker[ky*kw+kx] += g * xPlane[iy*w+ix]
							dxPlane[iy*w+ix] += g * ker[ky*kw+kx]
						}
					}
				}
			}
		}
	}
	return dx, dw, db
}

// LinearCache holds state for LinearBwd.
type LinearCache struct {
	X *tensor.Tensor
	W *tensor.Tensor
}

// LinearFwd computes y = x·Wᵀ + b for x (N,in) and W (out,in).
func LinearFwd(x, w, b *tensor.Tensor) (*tensor.Tensor, *LinearCache) {
	return LinearView(x, w, b, w.Shape[0]), &LinearCache{X: x, W: w}
}

// LinearView computes y = x·Wᵀ + b against the top-left out×in block of w
// (≥out, ≥in) and the first out entries of b, both read in place: the
// inference form of LinearFwd over a sliced copy, with no copy and no cache.
func LinearView(x, w, b *tensor.Tensor, out int) *tensor.Tensor {
	y := tensor.MatMulTransBView(x, w, out)
	if b != nil {
		for r := 0; r < x.Shape[0]; r++ {
			row := y.Data[r*out : (r+1)*out]
			for i := range row {
				row[i] += b.Data[i]
			}
		}
	}
	return y
}

// LinearBwd back-propagates dy (N,out) and returns (dx, dw, db).
func LinearBwd(dy *tensor.Tensor, c *LinearCache) (dx, dw, db *tensor.Tensor) {
	dx = tensor.MatMul(dy, c.W)       // (N,out)·(out,in) = (N,in)
	dw = tensor.MatMulTransA(dy, c.X) // (out,N)·(N,in) = (out,in)
	out := c.W.Shape[0]
	db = tensor.New(out)
	for r := 0; r < dy.Shape[0]; r++ {
		row := dy.Data[r*out : (r+1)*out]
		for i, v := range row {
			db.Data[i] += v
		}
	}
	return dx, dw, db
}

// ReLUFwd applies max(0, x); the returned mask drives ReLUBwd.
func ReLUFwd(x *tensor.Tensor) (*tensor.Tensor, []bool) {
	y := x.Clone()
	mask := make([]bool, len(x.Data))
	for i, v := range y.Data {
		if v > 0 {
			mask[i] = true
		} else {
			y.Data[i] = 0
		}
	}
	return y, mask
}

// ReLUInPlace is ReLUFwd for inference: it overwrites x and keeps no mask.
func ReLUInPlace(x *tensor.Tensor) {
	for i, v := range x.Data {
		if !(v > 0) {
			x.Data[i] = 0
		}
	}
}

// ReLUBwd gates dy by the forward mask.
func ReLUBwd(dy *tensor.Tensor, mask []bool) *tensor.Tensor {
	dx := dy.Clone()
	for i := range dx.Data {
		if !mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// HSwishFwd applies x·relu6(x+3)/6 (the MobileNetV3 hard-swish).
func HSwishFwd(x *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	y := tensor.New(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = v * relu6(v+3) / 6
	}
	return y, x
}

// HSwishBwd back-propagates through hard-swish given the cached input.
func HSwishBwd(dy, x *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(x.Shape...)
	for i, v := range x.Data {
		var g float32
		switch {
		case v <= -3:
			g = 0
		case v >= 3:
			g = 1
		default:
			g = (2*v + 3) / 6
		}
		dx.Data[i] = dy.Data[i] * g
	}
	return dx
}

// HSigmoidFwd applies relu6(x+3)/6.
func HSigmoidFwd(x *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	y := x.Clone()
	HSigmoidInPlace(y)
	return y, x
}

// HSigmoidInPlace is HSigmoidFwd for inference: it overwrites x.
func HSigmoidInPlace(x *tensor.Tensor) {
	for i, v := range x.Data {
		x.Data[i] = relu6(v+3) / 6
	}
}

// HSigmoidBwd back-propagates through hard-sigmoid.
func HSigmoidBwd(dy, x *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if v > -3 && v < 3 {
			dx.Data[i] = dy.Data[i] / 6
		}
	}
	return dx
}

func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

// TanhFwd applies elementwise tanh; the returned output is the cache.
func TanhFwd(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = float32(math.Tanh(float64(v)))
	}
	return y
}

// TanhBwd computes dy·(1−y²) given the forward output y.
func TanhBwd(dy, y *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(y.Shape...)
	for i := range y.Data {
		dx.Data[i] = dy.Data[i] * (1 - y.Data[i]*y.Data[i])
	}
	return dx
}

// SigmoidFwd applies the logistic function; the output is the cache.
func SigmoidFwd(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return y
}

// SigmoidBwd computes dy·y·(1−y).
func SigmoidBwd(dy, y *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(y.Shape...)
	for i := range y.Data {
		dx.Data[i] = dy.Data[i] * y.Data[i] * (1 - y.Data[i])
	}
	return dx
}

// GlobalAvgPoolFwd reduces (N,C,H,W) to (N,C); the cache is the input shape.
func GlobalAvgPoolFwd(x *tensor.Tensor) (*tensor.Tensor, []int) {
	return tensor.AvgPoolGlobal(x), append([]int(nil), x.Shape...)
}

// GlobalAvgPoolBwd broadcasts dy (N,C) back over the spatial dims.
func GlobalAvgPoolBwd(dy *tensor.Tensor, shape []int) *tensor.Tensor {
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	dx := tensor.New(n, c, h, w)
	inv := 1 / float32(h*w)
	for r := 0; r < n*c; r++ {
		g := dy.Data[r] * inv
		dst := dx.Data[r*h*w : (r+1)*h*w]
		for i := range dst {
			dst[i] = g
		}
	}
	return dx
}

// ScaleChannelsFwd multiplies each channel plane of x (N,C,H,W) by the
// matching gate s (N,C); used by squeeze-and-excitation.
func ScaleChannelsFwd(x, s *tensor.Tensor) *tensor.Tensor {
	y := x.Clone()
	ScaleChannelsInPlace(y, s)
	return y
}

// ScaleChannelsInPlace is ScaleChannelsFwd for inference: it overwrites x.
func ScaleChannelsInPlace(x, s *tensor.Tensor) {
	plane := x.Shape[2] * x.Shape[3]
	for r, g := range s.Data {
		row := x.Data[r*plane : (r+1)*plane]
		// The vector kernel takes the whole registers, the loop the rest.
		row = row[scaleVec(row, g):]
		for i := range row {
			row[i] *= g
		}
	}
}

// ScaleChannelsBwd returns (dx, ds) for the channel-scaling op.
func ScaleChannelsBwd(dy, x, s *tensor.Tensor) (dx, ds *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	dx = tensor.New(n, c, h, w)
	ds = tensor.New(n, c)
	for r := 0; r < n*c; r++ {
		g := s.Data[r]
		var acc float32
		xs := x.Data[r*h*w : (r+1)*h*w]
		dys := dy.Data[r*h*w : (r+1)*h*w]
		dxs := dx.Data[r*h*w : (r+1)*h*w]
		for i := range xs {
			dxs[i] = dys[i] * g
			acc += dys[i] * xs[i]
		}
		ds.Data[r] = acc
	}
	return dx, ds
}
