package supernet

import (
	"fmt"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// Caches holds everything Backward needs for one training-mode Forward.
type Caches struct {
	stemCache *nn.ConvCache
	stemBN    *nn.BNCache
	stemAct   *tensor.Tensor // hswish input cache

	blocks []*blockCache

	headIn    *tensor.Tensor
	headCache *nn.ConvCache
	headBN    *nn.BNCache
	headAct   *tensor.Tensor
	poolShape []int
	clsCache  *nn.LinearCache
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

// bnEps is the batch-norm epsilon of every layer, in both forwards.
const bnEps = 1e-5

// Forward runs submodel cfg over input x (N, C, H, W). The input is resized
// to cfg.Resolution.
//
// When training is true every op keeps what its backward needs, batch-norm
// running statistics update, and the returned Caches drive Backward. When it
// is false nothing is kept and the caches are nil: the stem, each tile and the
// head run the inference path the Exec* functions run — the same arithmetic
// on every element (TestTrainingAndInferenceForwardAgree), in place, against
// the shared weights where they lie, every activation in one Workspace.
func (s *Supernet) Forward(x *tensor.Tensor, cfg *Config, training bool) (*tensor.Tensor, *Caches, error) {
	if err := s.Arch.Validate(cfg); err != nil {
		return nil, nil, err
	}
	var ws *Workspace
	var c *Caches
	var y *tensor.Tensor
	if training {
		// Stem: 3x3 stride-2 conv + BN + hswish.
		c = &Caches{}
		x = tensor.BilinearResize(x, cfg.Resolution, cfg.Resolution)
		y, c.stemCache = nn.ConvFwd(x, s.stemW.W, s.stemB.W, stemOpts)
		y, c.stemBN = s.bnFwd(s.stemBN, y, s.Arch.StemChannels)
		y, c.stemAct = nn.HSwishFwd(y)
	} else {
		ws = s.AcquireWorkspace()
		defer ws.Release()
		y = ws.Stem(x, cfg.Resolution)
	}

	li := 0
	for si := range s.Arch.Stages {
		for bi := 0; bi < cfg.Depths[si]; bi++ {
			bc, out, err := s.blockFwd(s.blocks[si][bi], y, cfg.Layers[li], ws)
			if err != nil {
				return nil, nil, err
			}
			if training {
				c.blocks = append(c.blocks, bc)
			}
			y = out
			li++
		}
	}
	if !training {
		return ws.Head(y), nil, nil
	}

	// Head conv + BN + hswish + global pool + classifier.
	c.headIn = y
	headW := sliceConv1x1(s.headW.W, s.Arch.HeadChannels, y.Shape[1])
	y, c.headCache = nn.ConvFwd(y, headW, s.headB.W, tensor.ConvOpts{Stride: 1, Padding: 0})
	y, c.headBN = s.bnFwd(s.headBN, y, s.Arch.HeadChannels)
	y, c.headAct = nn.HSwishFwd(y)
	var pooled *tensor.Tensor
	pooled, c.poolShape = nn.GlobalAvgPoolFwd(y)
	logits, lc := nn.LinearFwd(pooled, s.clsW.W, s.clsB.W)
	c.clsCache = lc
	return logits, c, nil
}

// bnFwd is the training-mode batch normalization of the first `ch` channels:
// sliced copies of the affine parameters and running statistics go in, the
// updated running statistics are written back, and the cache BatchNormBwd
// reads comes out. Batch statistics normalize here and on the inference path
// alike (the standard weight-sharing NAS practice, since running stats are
// not valid across submodels); inference calls nn.BatchNormInPlace on the
// unsliced parameters instead and builds none of this.
func (s *Supernet) bnFwd(bn *bnParams, x *tensor.Tensor, ch int) (*tensor.Tensor, *nn.BNCache) {
	gamma := sliceVec(bn.gamma.W, ch)
	rm, rv := sliceVec(bn.runMean, ch), sliceVec(bn.runVar, ch)
	y, cache := nn.BatchNormFwd(x, gamma, sliceVec(bn.beta.W, ch), rm, rv, true, 0.05, bnEps)
	copy(bn.runMean.Data[:ch], rm.Data)
	copy(bn.runVar.Data[:ch], rv.Data)
	return y, cache
}

// blockFwd executes one MBConv block under an elastic setting, tiling the
// input per the FDSP spatial partition. Tiles are computed independently
// with zero padding (no halo exchange), exactly as they would execute on
// separate devices. ws is the run's workspace on the inference path — the
// block's output lives in it and no cache is built — and nil in training.
func (s *Supernet) blockFwd(b *mbBlock, x *tensor.Tensor, ls LayerSetting, ws *Workspace) (*blockCache, *tensor.Tensor, error) {
	training := ws == nil
	n := x.Shape[0]
	h, w := x.Shape[2], x.Shape[3]
	grid := ls.Partition
	if h%b.stride != 0 || w%b.stride != 0 {
		return nil, nil, fmt.Errorf("supernet: fmap %dx%d not divisible by stride %d", h, w, b.stride)
	}
	// Simulate input feature-map quantization (straight-through gradient).
	if training {
		if ls.Quant != tensor.Bits32 {
			x = tensor.FakeQuantize(x, ls.Quant)
		}
	} else {
		x = ws.Quantize(x, ls.Quant)
	}

	outH, outW := h/b.stride, w/b.stride
	residual := b.stride == 1 && b.inC == b.outC
	if !training && grid.Gy == 1 && grid.Gx == 1 {
		// One tile is the whole map: nothing to crop, nothing to paste. The
		// tile's result is the block's.
		yt := ws.Out(n, b.outC, outH, outW)
		s.blockInto(ws, yt, b, x, ls)
		return nil, yt, nil
	}

	// Tile boundaries are chosen in *output* space and mapped back through
	// the stride, so any grid works for any stride (tiles may be unequal).
	outRows, err := splitSizes(outH, grid.Gy)
	if err != nil {
		return nil, nil, err
	}
	outCols, err := splitSizes(outW, grid.Gx)
	if err != nil {
		return nil, nil, err
	}

	var bc *blockCache
	var out *tensor.Tensor
	if training {
		bc = &blockCache{
			block: b, setting: ls,
			inShape:  append([]int(nil), x.Shape...),
			grid:     grid,
			residual: residual,
		}
		out = tensor.New(n, b.outC, outH, outW)
	} else {
		// The tiles cover the map exactly, so the pastes write all of it.
		out = ws.Out(n, b.outC, outH, outW)
	}

	oy := 0
	for _, oRows := range outRows {
		ox := 0
		for _, oCols := range outCols {
			y0, x0 := oy*b.stride, ox*b.stride
			tileH, tileW := oRows*b.stride, oCols*b.stride
			xt := tensor.CropSpatial(x, y0, x0, tileH, tileW)
			var yt *tensor.Tensor
			if training {
				var tc *tileCache
				tc, yt = s.tileFwd(b, xt, ls)
				bc.tiles = append(bc.tiles, tc)
				bc.tileY = append(bc.tileY, y0)
				bc.tileX = append(bc.tileX, x0)
				bc.tileH = append(bc.tileH, tileH)
				bc.tileW = append(bc.tileW, tileW)
			} else {
				// The tile and its result are this loop's own; only the ops
				// between them run in the workspace.
				yt = tensor.New(n, b.outC, oRows, oCols)
				s.tileInfer(ws, yt, b, xt, ls)
			}
			if residual {
				// Nothing else holds yt: bn3's cache keeps XHat, not its output.
				yt.Add(xt)
			}
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

// hiddenWidth is the expanded channel count of block b under setting ls.
func hiddenWidth(b *mbBlock, ls LayerSetting) int {
	return min(b.inC*ls.Expand, b.maxHidden)
}

// seWidth is the squeeze width of block b's SE module.
func seWidth(b *mbBlock) int {
	return max(b.maxHidden/4, 1)
}

// tileFwd runs one tile through the block's expand → depthwise → (SE) →
// project pipeline in training mode: sliced copies of the weights, every
// intermediate kept for tileBwd. tileInfer is the same pipeline for
// inference.
func (s *Supernet) tileFwd(b *mbBlock, xt *tensor.Tensor, ls LayerSetting) (*tileCache, *tensor.Tensor) {
	hidden := hiddenWidth(b, ls)
	tc := &tileCache{xTile: xt}

	// Expand 1x1.
	tc.expandW = sliceConv1x1(b.expandW.W, hidden, b.inC)
	y, cc := nn.ConvFwd(xt, tc.expandW, nil, tensor.ConvOpts{Stride: 1, Padding: 0})
	tc.expC = cc
	y, tc.bn1 = s.bnFwd(b.bn1, y, hidden)
	y, tc.act1In = nn.HSwishFwd(y)

	// Depthwise kxk.
	k := ls.Kernel
	tc.dwW = sliceDW(b.dwW.W, hidden, k)
	var dwc *nn.DWConvCache
	y, dwc = nn.DepthwiseConvFwd(y, tc.dwW, nil, tensor.ConvOpts{Stride: b.stride, Padding: k / 2})
	tc.dwC = dwc
	y, tc.bn2 = s.bnFwd(b.bn2, y, hidden)
	y, tc.act2In = nn.HSwishFwd(y)
	tc.act2Out = y

	// Squeeze-and-excitation.
	if b.se {
		seC := seWidth(b)
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
	y, tc.bn3 = s.bnFwd(b.bn3, y, b.outC)
	return tc, y
}

// tileInfer is tileFwd for inference, into dst (N, outC, H/stride, W/stride).
// Each op produces the bits tileFwd's does, but nothing is kept: the 1×1
// convolutions and the SE gates read their block of the shared weights in
// place, the two hidden maps are the workspace's, batch norm and h-swish
// overwrite the convolution's output in one pass, and the SE gate scales in
// place — no weight copy beyond the depthwise kernel's center crop. xt is
// only read, and must not be dst.
func (s *Supernet) tileInfer(ws *Workspace, dst *tensor.Tensor, b *mbBlock, xt *tensor.Tensor, ls LayerSetting) {
	hidden := hiddenWidth(b, ls)
	n := xt.Shape[0]

	// Expand 1x1.
	y := ws.buf(roleExpand, n, hidden, xt.Shape[2], xt.Shape[3])
	tensor.Conv1x1Into(y, xt, b.expandW.W, nil, hidden)
	nn.BatchNormInPlace(y, b.bn1.gamma.W, b.bn1.beta.W, bnEps, true)

	// Depthwise kxk: padding k/2, so the map shrinks by the stride alone.
	k := ls.Kernel
	z := ws.buf(roleDW, n, hidden, dst.Shape[2], dst.Shape[3])
	tensor.DepthwiseConv2DInto(z, y, sliceDW(b.dwW.W, hidden, k), nil, tensor.ConvOpts{Stride: b.stride, Padding: k / 2})
	nn.BatchNormInPlace(z, b.bn2.gamma.W, b.bn2.beta.W, bnEps, true)

	// Squeeze-and-excitation.
	if b.se {
		g := nn.LinearView(tensor.AvgPoolGlobal(z), b.seW1.W, b.seB1.W, seWidth(b))
		nn.ReLUInPlace(g)
		g = nn.LinearView(g, b.seW2.W, b.seB2.W, hidden)
		nn.HSigmoidInPlace(g)
		nn.ScaleChannelsInPlace(z, g)
	}

	// Project 1x1 + BN (no activation — linear bottleneck).
	tensor.Conv1x1Into(dst, z, b.projW.W, nil, b.outC)
	nn.BatchNormInPlace(dst, b.bn3.gamma.W, b.bn3.beta.W, bnEps, false)
}
