// Package nas implements stage 1 of Murmuration: one-shot training of the
// partition-ready supernet (sandwich rule with in-place distillation and a
// progressive-shrinking schedule) and the accuracy predictor used by the RL
// stages.
//
// The paper trains its supernet on ImageNet and then uses "an accuracy
// predictor ... for accuracy prediction during RL policy training" (§6.1.1).
// This package provides both; the predictor is an analytic model calibrated
// to the paper's reported accuracy range (max submodel ≈ 78.5%, min ≈ 72%).
package nas

import (
	"hash/fnv"

	"murmuration/internal/supernet"
)

// CalibratedPredictor is the analytic accuracy model. Penalty weights are
// calibrated so that, over the paper-scale search space (DefaultArch):
//
//   - the max config scores ≈ 78.5 % (paper Fig. 13/15 upper envelope),
//   - the min config scores ≈ 72 % (paper Fig. 15 x-axis lower end),
//   - resolution and depth dominate, kernel/width contribute moderately,
//   - 8-bit activation quantization costs ≈ 0.4 % (per the OFA/quantization
//     literature the paper builds on),
//   - each FDSP partitioned layer costs a small penalty that grows with the
//     tile count (ADCNN reports ~0.3–1 % after finetuning).
//
// A tiny deterministic per-config jitter (±0.15 %) breaks ties so search
// algorithms see a non-degenerate landscape; it is a pure hash of the
// config, so repeated queries agree.
type CalibratedPredictor struct {
	Arch *supernet.Arch

	MaxAccuracy  float64
	ResWeight    float64
	DepthWeight  float64 // per dropped layer
	KernelWeight float64
	ExpandWeight float64
	QuantWeight  float64
	PartWeight   float64
	JitterAmp    float64
}

// NewCalibratedPredictor returns the default calibration for a search space.
func NewCalibratedPredictor(a *supernet.Arch) *CalibratedPredictor {
	return &CalibratedPredictor{
		Arch:         a,
		MaxAccuracy:  78.5,
		ResWeight:    6.0,
		DepthWeight:  0.30,
		KernelWeight: 0.8,
		ExpandWeight: 0.75,
		QuantWeight:  0.4,
		PartWeight:   0.6,
		JitterAmp:    0.15,
	}
}

// Accuracy returns the predicted top-1 accuracy (%) of a submodel config.
func (p *CalibratedPredictor) Accuracy(cfg *supernet.Config) float64 {
	a := p.Arch
	maxRes := float64(maxOf(a.Resolutions))
	acc := p.MaxAccuracy
	acc -= p.ResWeight * (maxRes - float64(cfg.Resolution)) / maxRes

	for si, d := range cfg.Depths {
		acc -= p.DepthWeight * float64(a.Stages[si].MaxDepth-d)
	}

	maxK, minK := float64(maxOf(a.Kernels)), float64(minOf(a.Kernels))
	maxE, minE := float64(maxOf(a.Expands)), float64(minOf(a.Expands))
	var kPen, ePen, qPen, pPen float64
	for _, l := range cfg.Layers {
		if maxK > minK {
			kPen += (maxK - float64(l.Kernel)) / (maxK - minK)
		}
		if maxE > minE {
			ePen += (maxE - float64(l.Expand)) / (maxE - minE)
		}
		qPen += (32 - float64(l.Quant)) / 24
		pPen += float64(l.Partition.NumTiles()-1) / 3
	}
	n := float64(len(cfg.Layers))
	acc -= p.KernelWeight * kPen / n
	acc -= p.ExpandWeight * ePen / n
	acc -= p.QuantWeight * qPen / n
	acc -= p.PartWeight * pPen / n

	acc += p.jitter(cfg)
	return acc
}

// jitter returns a deterministic pseudo-random offset in [-JitterAmp, +JitterAmp].
func (p *CalibratedPredictor) jitter(cfg *supernet.Config) float64 {
	h := fnv.New64a()
	h.Write([]byte(cfg.String()))
	u := float64(h.Sum64()%100000) / 100000 // [0,1)
	return (2*u - 1) * p.JitterAmp
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
