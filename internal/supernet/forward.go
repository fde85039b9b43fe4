package supernet

import (
	"fmt"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// Caches holds everything Backward needs for one Forward invocation.
type Caches struct {
	cfg      *Config
	training bool

	inputResized *tensor.Tensor
	stemCache    *nn.ConvCache
	stemBN       *nn.BNCache
	stemAct      *tensor.Tensor // hswish input cache

	blocks []*blockCache

	headIn    *tensor.Tensor
	headCache *nn.ConvCache
	headBN    *nn.BNCache
	headAct   *tensor.Tensor
	poolShape []int
	clsCache  *nn.LinearCache
	clsW      *tensor.Tensor // sliced classifier weight used in fwd
}

// blockCache caches one MBConv block execution (possibly tiled).
type blockCache struct {
	block    *mbBlock
	setting  LayerSetting
	inShape  []int
	grid     Partition
	tiles    []*tileCache
	tileY    []int // tile origin rows
	tileX    []int
	tileH    []int
	tileW    []int
	residual bool
}

// tileCache caches the ops of one tile's pass through a block.
type tileCache struct {
	xTile    *tensor.Tensor
	expandW  *tensor.Tensor
	expC     *nn.ConvCache
	bn1      *nn.BNCache
	act1In   *tensor.Tensor
	dwW      *tensor.Tensor
	dwC      *nn.DWConvCache
	bn2      *nn.BNCache
	act2In   *tensor.Tensor
	act2Out  *tensor.Tensor // input to SE / proj
	sePooled *tensor.Tensor
	seShape  []int
	seW1     *tensor.Tensor
	seC1     *nn.LinearCache
	seMask   []bool
	seW2     *tensor.Tensor
	seC2     *nn.LinearCache
	seGateIn *tensor.Tensor // hsigmoid input cache
	seGate   *tensor.Tensor
	projW    *tensor.Tensor
	projC    *nn.ConvCache
	bn3      *nn.BNCache
}

// Forward runs submodel cfg over input x (N, C, H, W). The input is resized
// to cfg.Resolution. When training is true, batch-norm running statistics
// update and the returned caches support Backward.
func (s *Supernet) Forward(x *tensor.Tensor, cfg *Config, training bool) (*tensor.Tensor, *Caches, error) {
	if err := s.Arch.Validate(cfg); err != nil {
		return nil, nil, err
	}
	c := &Caches{cfg: cfg, training: training}

	x = tensor.BilinearResize(x, cfg.Resolution, cfg.Resolution)
	c.inputResized = x

	// Stem: 3x3 stride-2 conv + BN + hswish.
	var y *tensor.Tensor
	y, c.stemCache = nn.ConvFwd(x, s.stemW.W, s.stemB.W, tensor.ConvOpts{Stride: 2, Padding: 1})
	y, c.stemBN = s.bnFwd(s.stemBN, y, s.Arch.StemChannels, training)
	y, c.stemAct = nn.HSwishFwd(y)

	li := 0
	for si := range s.Arch.Stages {
		d := cfg.Depths[si]
		for bi := 0; bi < d; bi++ {
			setting := cfg.Layers[li]
			li++
			bc, out, err := s.blockFwd(s.blocks[si][bi], y, setting, training)
			if err != nil {
				return nil, nil, err
			}
			c.blocks = append(c.blocks, bc)
			y = out
		}
	}

	// Head conv + BN + hswish + global pool + classifier.
	c.headIn = y
	cin := y.Shape[1]
	headW := sliceConv1x1(s.headW.W, s.Arch.HeadChannels, cin)
	var hc *nn.ConvCache
	y, hc = nn.ConvFwd(y, headW, s.headB.W, tensor.ConvOpts{Stride: 1, Padding: 0})
	c.headCache = hc
	y, c.headBN = s.bnFwd(s.headBN, y, s.Arch.HeadChannels, training)
	y, c.headAct = nn.HSwishFwd(y)
	var pooled *tensor.Tensor
	pooled, c.poolShape = nn.GlobalAvgPoolFwd(y)
	logits, lc := nn.LinearFwd(pooled, s.clsW.W, s.clsB.W)
	c.clsCache = lc
	c.clsW = s.clsW.W
	return logits, c, nil
}

// bnFwd runs batch normalization over the first `ch` channels using the
// sliced affine parameters. Batch statistics are always used (the standard
// weight-sharing NAS practice, since running stats are not valid across
// submodels); running stats update only in training mode.
func (s *Supernet) bnFwd(bn *bnParams, x *tensor.Tensor, ch int, training bool) (*tensor.Tensor, *nn.BNCache) {
	gamma := sliceVec(bn.gamma.W, ch)
	beta := sliceVec(bn.beta.W, ch)
	// Inference reads no running statistics, so it slices none: nil tells
	// BatchNormFwd to skip the update.
	var rm, rv *tensor.Tensor
	if training {
		rm = sliceVec(bn.runMean, ch)
		rv = sliceVec(bn.runVar, ch)
	}
	y, cache := nn.BatchNormFwd(x, gamma, beta, rm, rv, true, 0.05, 1e-5)
	if training {
		copy(bn.runMean.Data[:ch], rm.Data)
		copy(bn.runVar.Data[:ch], rv.Data)
	}
	// Stash the sliced gamma in the cache (BatchNormBwd reads cache.Gamma).
	cache.Gamma = gamma
	return y, cache
}

// blockFwd executes one MBConv block under an elastic setting, tiling the
// input per the FDSP spatial partition. Tiles are computed independently
// with zero padding (no halo exchange), exactly as they would execute on
// separate devices.
func (s *Supernet) blockFwd(b *mbBlock, x *tensor.Tensor, ls LayerSetting, training bool) (*blockCache, *tensor.Tensor, error) {
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]
	grid := ls.Partition
	if h%b.stride != 0 || w%b.stride != 0 {
		return nil, nil, fmt.Errorf("supernet: fmap %dx%d not divisible by stride %d", h, w, b.stride)
	}
	// Tile boundaries are chosen in *output* space and mapped back through
	// the stride, so any grid works for any stride (tiles may be unequal).
	outRows, err := splitSizes(h/b.stride, grid.Gy)
	if err != nil {
		return nil, nil, err
	}
	outCols, err := splitSizes(w/b.stride, grid.Gx)
	if err != nil {
		return nil, nil, err
	}

	// Simulate input feature-map quantization (straight-through gradient).
	if ls.Quant != tensor.Bits32 {
		x = tensor.Quantize(x, ls.Quant).Dequantize()
	}

	bc := &blockCache{
		block: b, setting: ls,
		inShape:  append([]int(nil), x.Shape...),
		grid:     grid,
		residual: b.stride == 1 && b.inC == b.outC,
	}
	outH, outW := h/b.stride, w/b.stride
	out := tensor.New(n, b.outC, outH, outW)

	oy := 0
	for _, oRows := range outRows {
		ox := 0
		for _, oCols := range outCols {
			y0, x0 := oy*b.stride, ox*b.stride
			tileH, tileW := oRows*b.stride, oCols*b.stride
			xt := tensor.CropSpatial(x, y0, x0, tileH, tileW)
			tc, yt := s.tileFwd(b, xt, ls, training)
			if bc.residual {
				yt = yt.Clone().Add(xt)
			}
			bc.tiles = append(bc.tiles, tc)
			bc.tileY = append(bc.tileY, y0)
			bc.tileX = append(bc.tileX, x0)
			bc.tileH = append(bc.tileH, tileH)
			bc.tileW = append(bc.tileW, tileW)
			tensor.PasteSpatial(out, yt, oy, ox)
			ox += oCols
		}
		oy += oRows
	}
	return bc, out, nil
}

// splitSizes divides n into g contiguous chunks whose sizes differ by at
// most one. It errors when n < g (a tile would be empty).
func splitSizes(n, g int) ([]int, error) {
	if g < 1 {
		return nil, fmt.Errorf("supernet: invalid grid %d", g)
	}
	if n < g {
		return nil, fmt.Errorf("supernet: cannot split %d rows into %d tiles", n, g)
	}
	out := make([]int, g)
	base := n / g
	rem := n % g
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out, nil
}

// tileFwd runs one tile through the block's expand → depthwise → (SE) →
// project pipeline using sliced weights.
func (s *Supernet) tileFwd(b *mbBlock, xt *tensor.Tensor, ls LayerSetting, training bool) (*tileCache, *tensor.Tensor) {
	hidden := b.inC * ls.Expand
	if hidden > b.maxHidden {
		hidden = b.maxHidden
	}
	tc := &tileCache{xTile: xt}

	// Expand 1x1.
	tc.expandW = sliceConv1x1(b.expandW.W, hidden, b.inC)
	y, cc := nn.ConvFwd(xt, tc.expandW, nil, tensor.ConvOpts{Stride: 1, Padding: 0})
	tc.expC = cc
	y, tc.bn1 = s.bnFwd(b.bn1, y, hidden, training)
	y, tc.act1In = nn.HSwishFwd(y)

	// Depthwise kxk.
	k := ls.Kernel
	tc.dwW = sliceDW(b.dwW.W, hidden, k)
	var dwc *nn.DWConvCache
	y, dwc = nn.DepthwiseConvFwd(y, tc.dwW, nil, tensor.ConvOpts{Stride: b.stride, Padding: k / 2})
	tc.dwC = dwc
	y, tc.bn2 = s.bnFwd(b.bn2, y, hidden, training)
	y, tc.act2In = nn.HSwishFwd(y)
	tc.act2Out = y

	// Squeeze-and-excitation.
	if b.se {
		seC := b.maxHidden / 4
		if seC < 1 {
			seC = 1
		}
		pooled, shape := nn.GlobalAvgPoolFwd(y)
		tc.sePooled = pooled
		tc.seShape = shape
		tc.seW1 = sliceLinear(b.seW1.W, seC, hidden)
		z, c1 := nn.LinearFwd(pooled, tc.seW1, b.seB1.W)
		tc.seC1 = c1
		var mask []bool
		z, mask = nn.ReLUFwd(z)
		tc.seMask = mask
		tc.seW2 = sliceLinear(b.seW2.W, hidden, seC)
		g, c2 := nn.LinearFwd(z, tc.seW2, sliceVec(b.seB2.W, hidden))
		tc.seC2 = c2
		g, tc.seGateIn = nn.HSigmoidFwd(g)
		tc.seGate = g
		y = nn.ScaleChannelsFwd(y, g)
	}

	// Project 1x1 + BN (no activation — linear bottleneck).
	tc.projW = sliceConv1x1(b.projW.W, b.outC, hidden)
	var pc *nn.ConvCache
	y, pc = nn.ConvFwd(y, tc.projW, nil, tensor.ConvOpts{Stride: 1, Padding: 0})
	tc.projC = pc
	y, tc.bn3 = s.bnFwd(b.bn3, y, b.outC, training)
	return tc, y
}
