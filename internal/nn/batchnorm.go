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
	var means, variances [statsWidth]float32
	for cc := 0; cc < c; cc++ {
		if cc%statsWidth == 0 {
			means, variances = batchStats(x, cc, min(statsWidth, c-cc))
		}
		mean, variance := means[cc%statsWidth], variances[cc%statsWidth]
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

// statsWidth is the number of channels whose statistics are taken together:
// four float64 accumulator registers of four channels each, enough add chains
// in flight to hide the add's latency.
const statsWidth = 16

// batchStats returns the mean and the biased variance over the batch of the
// k ≤ statsWidth channels of x (N,C,H,W) starting at c0: float64 sums taken
// image by image and then along the plane — the one order training-mode
// BatchNormFwd and BatchNormInPlace both take them in. Channels are
// independent, so how many are walked together changes no sum: the vector
// kernel takes the whole groups of four, all of them at once, and batchStats4
// whatever it left (every channel without AVX2).
func batchStats(x *tensor.Tensor, c0, k int) (mean, variance [statsWidth]float32) {
	for done := batchStatsVec(x, c0, k, &mean, &variance); done < k; done += 4 {
		m, v := batchStats4(x, c0+done, min(4, k-done))
		copy(mean[done:], m[:])
		copy(variance[done:], v[:])
	}
	return mean, variance
}

// batchStats4 is batchStats for k ≤ 4 channels, the portable loop: four
// independent chains walked together, so the adds of one overlap the latency
// of the others and no channel's sum is reordered; with fewer than four left
// the spare chains repeat the last channel and are discarded.
func batchStats4(x *tensor.Tensor, cc, k int) (mean, variance [4]float32) {
	n, c := x.Shape[0], x.Shape[1]
	plane := x.Shape[2] * x.Shape[3]
	cnt := float64(n * plane)
	c1, c2, c3 := cc+min(1, k-1), cc+min(2, k-1), cc+min(3, k-1)
	rows := func(bi int) (r0, r1, r2, r3 []float32) {
		d := x.Data[bi*c*plane:]
		return d[cc*plane:][:plane], d[c1*plane:][:plane], d[c2*plane:][:plane], d[c3*plane:][:plane]
	}
	var s0, s1, s2, s3 float64
	for bi := 0; bi < n; bi++ {
		r0, r1, r2, r3 := rows(bi)
		for i := range r0 {
			s0 += float64(r0[i])
			s1 += float64(r1[i])
			s2 += float64(r2[i])
			s3 += float64(r3[i])
		}
	}
	mean = [4]float32{float32(s0 / cnt), float32(s1 / cnt), float32(s2 / cnt), float32(s3 / cnt)}
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	var v0, v1, v2, v3 float64
	for bi := 0; bi < n; bi++ {
		r0, r1, r2, r3 := rows(bi)
		for i := range r0 {
			d0, d1 := float64(r0[i]-m0), float64(r1[i]-m1)
			d2, d3 := float64(r2[i]-m2), float64(r3[i]-m3)
			v0 += d0 * d0
			v1 += d1 * d1
			v2 += d2 * d2
			v3 += d3 * d3
		}
	}
	return mean, [4]float32{float32(v0 / cnt), float32(v1 / cnt), float32(v2 / cnt), float32(v3 / cnt)}
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
		for c0 := cs; c0 < ce; c0 += statsWidth {
			k := min(statsWidth, ce-c0)
			means, variances := batchStats(x, c0, k)
			for cc := c0; cc < c0+k; cc++ {
				mean := means[cc-c0]
				invStd := float32(1 / math.Sqrt(float64(variances[cc-c0]+eps)))
				g, b := gamma.Data[cc], beta.Data[cc]
				for bi := 0; bi < n; bi++ {
					row := x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
					// The vector kernel takes the whole registers of the
					// plane, the portable loop the rest (all of it without AVX2).
					done := bnApplyVec(row, mean, invStd, g, b, hswish)
					bnApply(row[done:], mean, invStd, g, b, hswish)
				}
			}
		}
	})
}

// bnApply is the apply pass over one channel plane: the affine map of the
// normalized value, then hard-swish when hswish is set.
func bnApply(row []float32, mean, invStd, g, b float32, hswish bool) {
	if hswish {
		for i, v := range row {
			v = (v-mean)*invStd*g + b
			row[i] = v * relu6(v+3) / 6
		}
		return
	}
	for i, v := range row {
		row[i] = (v-mean)*invStd*g + b
	}
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
