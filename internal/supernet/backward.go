package supernet

import (
	"errors"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// Backward back-propagates dLogits through the submodel recorded in caches,
// accumulating gradients into the supernet's shared parameters. Elastic
// slices scatter their gradients into the corresponding regions of the full
// weight tensors, which is what lets many submodels train the same weights
// (one-shot weight sharing). Only Forward(…, training=true) returns caches;
// the nil caches of an inference forward are an error.
func (s *Supernet) Backward(dLogits *tensor.Tensor, c *Caches) error {
	if c == nil {
		return errors.New("supernet: Backward needs the caches of a training-mode Forward")
	}
	// The first backward is where a supernet's gradients come into being
	// (nn.Param.Grad), all of them at once: the optimizer then decays and
	// moves every weight from the first step on, not only the ones this
	// submodel reached.
	for _, p := range s.Params() {
		p.Grad()
	}
	// Classifier.
	dPooled, dW, dB := nn.LinearBwd(dLogits, c.clsCache)
	s.clsW.Grad().Add(dW)
	s.clsB.Grad().Add(dB)

	// Global pool + head activation + BN + conv.
	dy := nn.GlobalAvgPoolBwd(dPooled, c.poolShape)
	dy = nn.HSwishBwd(dy, c.headAct)
	var dg, db *tensor.Tensor
	dy, dg, db = nn.BatchNormBwd(dy, c.headBN)
	scatterVec(s.headBN.gamma.Grad(), dg, s.Arch.HeadChannels)
	scatterVec(s.headBN.beta.Grad(), db, s.Arch.HeadChannels)
	var dwConv, dbConv *tensor.Tensor
	cin := c.headIn.Shape[1]
	dy, dwConv, dbConv = nn.ConvBwd(dy, c.headCache)
	scatterConv1x1(s.headW.Grad(), dwConv, s.Arch.HeadChannels, cin)
	s.headB.Grad().Add(dbConv)

	// Blocks in reverse.
	for i := len(c.blocks) - 1; i >= 0; i-- {
		dy = s.blockBwd(dy, c.blocks[i])
	}

	// Stem.
	dy = nn.HSwishBwd(dy, c.stemAct)
	dy, dg, db = nn.BatchNormBwd(dy, c.stemBN)
	s.stemBN.gamma.Grad().Add(dg)
	s.stemBN.beta.Grad().Add(db)
	_, dwConv, dbConv = nn.ConvBwd(dy, c.stemCache)
	s.stemW.Grad().Add(dwConv)
	s.stemB.Grad().Add(dbConv)
	return nil
}

// blockBwd back-propagates through one (possibly tiled) MBConv block and
// returns the gradient w.r.t. the block input. Input quantization uses a
// straight-through estimator, so the gradient passes unchanged.
func (s *Supernet) blockBwd(dy *tensor.Tensor, bc *blockCache) *tensor.Tensor {
	b := bc.block
	dx := tensor.New(bc.inShape...)
	ti := 0
	for range bc.tiles {
		y0, x0 := bc.tileY[ti], bc.tileX[ti]
		th, tw := bc.tileH[ti], bc.tileW[ti]
		dyt := tensor.CropSpatial(dy, y0/b.stride, x0/b.stride, th/b.stride, tw/b.stride)
		dxt := s.tileBwd(dyt, bc.tiles[ti], b, bc.setting)
		if bc.residual {
			dxt.Add(dyt) // identity shortcut
		}
		tensor.PasteSpatial(dx, dxt, y0, x0)
		ti++
	}
	return dx
}

// tileBwd reverses tileFwd for one tile, scattering weight gradients into
// the shared parameters.
func (s *Supernet) tileBwd(dy *tensor.Tensor, tc *tileCache, b *mbBlock, ls LayerSetting) *tensor.Tensor {
	hidden := hiddenWidth(b, ls)

	// Project BN + conv.
	d, dg, db := nn.BatchNormBwd(dy, tc.bn3)
	scatterVec(b.bn3.gamma.Grad(), dg, b.outC)
	scatterVec(b.bn3.beta.Grad(), db, b.outC)
	d, dwp, _ := nn.ConvBwd(d, tc.projC)
	scatterConv1x1(b.projW.Grad(), dwp, b.outC, hidden)

	// Squeeze-and-excitation.
	if b.se {
		seC := seWidth(b)
		dAct, dGate := nn.ScaleChannelsBwd(d, tc.act2Out, tc.seGate)
		dz := nn.HSigmoidBwd(dGate, tc.seGateIn)
		dz, dw2, db2 := nn.LinearBwd(dz, tc.seC2)
		scatterLinear(b.seW2.Grad(), dw2, hidden, seC)
		scatterVec(b.seB2.Grad(), db2, hidden)
		dz = nn.ReLUBwd(dz, tc.seMask)
		dPooled, dw1, db1 := nn.LinearBwd(dz, tc.seC1)
		scatterLinear(b.seW1.Grad(), dw1, seC, hidden)
		b.seB1.Grad().Add(db1)
		dAct.Add(nn.GlobalAvgPoolBwd(dPooled, tc.seShape))
		d = dAct
	}

	// Depthwise activation + BN + conv.
	d = nn.HSwishBwd(d, tc.act2In)
	d, dg, db = nn.BatchNormBwd(d, tc.bn2)
	scatterVec(b.bn2.gamma.Grad(), dg, hidden)
	scatterVec(b.bn2.beta.Grad(), db, hidden)
	var dwd *tensor.Tensor
	d, dwd, _ = nn.DepthwiseConvBwd(d, tc.dwC)
	scatterDW(b.dwW.Grad(), dwd, hidden, ls.Kernel)

	// Expand activation + BN + conv.
	d = nn.HSwishBwd(d, tc.act1In)
	d, dg, db = nn.BatchNormBwd(d, tc.bn1)
	scatterVec(b.bn1.gamma.Grad(), dg, hidden)
	scatterVec(b.bn1.beta.Grad(), db, hidden)
	var dwe *tensor.Tensor
	d, dwe, _ = nn.ConvBwd(d, tc.expC)
	scatterConv1x1(b.expandW.Grad(), dwe, hidden, b.inC)
	return d
}
