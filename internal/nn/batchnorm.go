package nn

import (
	"math"

	"murmuration/internal/tensor"
)

// BNCache holds forward state for BatchNormBwd.
type BNCache struct {
	XHat   *tensor.Tensor
	InvStd []float32
	Gamma  *tensor.Tensor
}

// BatchNormFwd normalizes x (N,C,H,W) per channel.
//
// In training mode it uses batch statistics and updates runningMean/
// runningVar in place with the given momentum (nil running statistics skip
// the update). In eval mode it uses the running statistics and returns a nil
// cache.
func BatchNormFwd(x, gamma, beta, runningMean, runningVar *tensor.Tensor,
	training bool, momentum, eps float32) (*tensor.Tensor, *BNCache) {

	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := tensor.New(n, c, h, w)
	plane := h * w

	if !training {
		for cc := 0; cc < c; cc++ {
			invStd := float32(1 / math.Sqrt(float64(runningVar.Data[cc]+eps)))
			g, b, m := gamma.Data[cc], beta.Data[cc], runningMean.Data[cc]
			for bi := 0; bi < n; bi++ {
				src := x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
				dst := y.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
				for i, v := range src {
					dst[i] = (v-m)*invStd*g + b
				}
			}
		}
		return y, nil
	}

	xhat := tensor.New(n, c, h, w)
	invStds := make([]float32, c)
	for cc := 0; cc < c; cc++ {
		mean, variance := batchStats(x, cc)
		invStd := float32(1 / math.Sqrt(float64(variance+eps)))
		invStds[cc] = invStd
		g, b := gamma.Data[cc], beta.Data[cc]
		for bi := 0; bi < n; bi++ {
			src := x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			xh := xhat.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			dst := y.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			for i, v := range src {
				xh[i] = (v - mean) * invStd
				dst[i] = xh[i]*g + b
			}
		}
		if runningMean != nil {
			runningMean.Data[cc] = (1-momentum)*runningMean.Data[cc] + momentum*mean
			runningVar.Data[cc] = (1-momentum)*runningVar.Data[cc] + momentum*variance
		}
	}
	return y, &BNCache{XHat: xhat, InvStd: invStds, Gamma: gamma}
}

// batchStats returns the mean and the biased variance of channel cc of x
// (N,C,H,W) over the batch: float64 sums taken image by image and then along
// the plane — the one order training-mode BatchNormFwd and BatchNormInPlace
// both take them in.
func batchStats(x *tensor.Tensor, cc int) (mean, variance float32) {
	n, c := x.Shape[0], x.Shape[1]
	plane := x.Shape[2] * x.Shape[3]
	cnt := float64(n * plane)
	var sum float64
	for bi := 0; bi < n; bi++ {
		for _, v := range x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane] {
			sum += float64(v)
		}
	}
	mean = float32(sum / cnt)
	var vsum float64
	for bi := 0; bi < n; bi++ {
		for _, v := range x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane] {
			d := float64(v - mean)
			vsum += d * d
		}
	}
	return mean, float32(vsum / cnt)
}

// BatchNormInPlace normalizes x (N,C,H,W) per channel with batch statistics,
// overwriting it, and applies hard-swish to the result when hswish is set.
// It is BatchNormFwd's training mode (followed by HSwishFwd) as inference
// needs it: the same statistics and the same arithmetic on every element, so
// the same bits, without the XHat, the cache and the second and third
// activation tensors only a backward pass reads. gamma and beta may be longer
// than C — an elastic layer's full-width parameters — and supply their first
// C entries. Channels are independent and run in parallel.
func BatchNormInPlace(x, gamma, beta *tensor.Tensor, eps float32, hswish bool) {
	n, c := x.Shape[0], x.Shape[1]
	plane := x.Shape[2] * x.Shape[3]
	tensor.ParallelByCost(c, 3*n*plane, func(cs, ce int) {
		for cc := cs; cc < ce; cc++ {
			mean, variance := batchStats(x, cc)
			invStd := float32(1 / math.Sqrt(float64(variance+eps)))
			g, b := gamma.Data[cc], beta.Data[cc]
			for bi := 0; bi < n; bi++ {
				row := x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
				if hswish {
					for i, v := range row {
						v = (v-mean)*invStd*g + b
						row[i] = v * relu6(v+3) / 6
					}
				} else {
					for i, v := range row {
						row[i] = (v-mean)*invStd*g + b
					}
				}
			}
		}
	})
}

// BatchNormBwd back-propagates dy through a training-mode batch norm and
// returns (dx, dgamma, dbeta).
func BatchNormBwd(dy *tensor.Tensor, cache *BNCache) (dx, dgamma, dbeta *tensor.Tensor) {
	n, c, h, w := dy.Shape[0], dy.Shape[1], dy.Shape[2], dy.Shape[3]
	plane := h * w
	cnt := float32(n * plane)
	dx = tensor.New(n, c, h, w)
	dgamma = tensor.New(c)
	dbeta = tensor.New(c)
	for cc := 0; cc < c; cc++ {
		var sumDy, sumDyXhat float64
		for bi := 0; bi < n; bi++ {
			dys := dy.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			xhs := cache.XHat.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			for i, v := range dys {
				sumDy += float64(v)
				sumDyXhat += float64(v * xhs[i])
			}
		}
		dgamma.Data[cc] = float32(sumDyXhat)
		dbeta.Data[cc] = float32(sumDy)
		g := cache.Gamma.Data[cc]
		invStd := cache.InvStd[cc]
		k1 := float32(sumDy) / cnt
		k2 := float32(sumDyXhat) / cnt
		for bi := 0; bi < n; bi++ {
			dys := dy.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			xhs := cache.XHat.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			dxs := dx.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			for i := range dys {
				dxs[i] = g * invStd * (dys[i] - k1 - xhs[i]*k2)
			}
		}
	}
	return dx, dgamma, dbeta
}
