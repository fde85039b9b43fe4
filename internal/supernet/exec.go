package supernet

import (
	"fmt"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// The Exec* methods are the runtime executor's entry points: they run one
// piece of the network (stem, a single block on a single tile, or the head)
// in inference mode against the in-memory shared weights. The distributed
// scheduler composes them across devices; quantization of inputs happens on
// the wire, not here.

// ExecStem runs the stem on x (N,C,H,W at the config resolution).
func (s *Supernet) ExecStem(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.Conv2D(x, s.stemW.W, s.stemB.W, tensor.ConvOpts{Stride: 2, Padding: 1})
	nn.BatchNormInPlace(y, s.stemBN.gamma.W, s.stemBN.beta.W, bnEps, true)
	return y
}

// ExecBlock runs MBConv block (stage, index) on one input tile under an
// elastic setting, including the residual shortcut when applicable. The
// caller is responsible for spatial tiling; the tile is treated as a full
// FDSP tile (zero padding at its borders).
func (s *Supernet) ExecBlock(stage, index int, x *tensor.Tensor, ls LayerSetting) (*tensor.Tensor, error) {
	if stage < 0 || stage >= len(s.blocks) {
		return nil, fmt.Errorf("supernet: stage %d out of range", stage)
	}
	if index < 0 || index >= len(s.blocks[stage]) {
		return nil, fmt.Errorf("supernet: block %d out of range in stage %d", index, stage)
	}
	b := s.blocks[stage][index]
	// Tiles and settings arrive off the wire: everything the kernels index
	// by is checked here, so a malformed request is an error, not a panic.
	if len(x.Shape) != 4 || x.Len() == 0 {
		return nil, fmt.Errorf("supernet: block input shape %v, want a non-empty N,C,H,W tile", x.Shape)
	}
	if !containsInt(s.Arch.Kernels, ls.Kernel) || !containsInt(s.Arch.Expands, ls.Expand) {
		return nil, fmt.Errorf("supernet: kernel %d / expand %d outside the search space", ls.Kernel, ls.Expand)
	}
	if x.Shape[1] != b.inC {
		return nil, fmt.Errorf("supernet: block s%d.b%d wants %d channels, got %d",
			stage, index, b.inC, x.Shape[1])
	}
	if x.Shape[2]%b.stride != 0 || x.Shape[3]%b.stride != 0 {
		return nil, fmt.Errorf("supernet: tile %dx%d not divisible by stride %d",
			x.Shape[2], x.Shape[3], b.stride)
	}
	y := s.tileInfer(b, x, ls)
	if b.stride == 1 && b.inC == b.outC {
		y.Add(x)
	}
	return y, nil
}

// BlockAt maps an active-layer index of cfg to its (stage, blockIndex) and
// stride. It mirrors the stage-major layer ordering of Config.Layers.
func (a *Arch) BlockAt(cfg *Config, layer int) (stage, index, stride int, err error) {
	if layer < 0 || layer >= len(cfg.Layers) {
		return 0, 0, 0, fmt.Errorf("supernet: layer %d out of range", layer)
	}
	idx := layer
	for si := range a.Stages {
		if idx < cfg.Depths[si] {
			stride = 1
			if idx == 0 {
				stride = a.Stages[si].Stride
			}
			return si, idx, stride, nil
		}
		idx -= cfg.Depths[si]
	}
	return 0, 0, 0, fmt.Errorf("supernet: layer %d beyond active depth", layer)
}

// ExecHead runs the final conv + pooling + classifier on the trunk output.
func (s *Supernet) ExecHead(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.Conv1x1(x, s.headW.W, s.headB.W, s.Arch.HeadChannels)
	nn.BatchNormInPlace(y, s.headBN.gamma.W, s.headBN.beta.W, bnEps, true)
	return nn.LinearView(tensor.AvgPoolGlobal(y), s.clsW.W, s.clsB.W, s.Arch.NumClasses)
}

// TileSplit computes the FDSP tile geometry for an input of spatial size
// (h, w) under grid and stride: per-tile input origins and sizes, in
// row-major tile order. It matches blockFwd's output-space tiling.
func TileSplit(h, w int, grid Partition, stride int) (y0s, x0s, ths, tws []int, err error) {
	if h%stride != 0 || w%stride != 0 {
		return nil, nil, nil, nil, fmt.Errorf("supernet: fmap %dx%d not divisible by stride %d", h, w, stride)
	}
	rows, err := splitSizes(h/stride, grid.Gy)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cols, err := splitSizes(w/stride, grid.Gx)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	oy := 0
	for _, r := range rows {
		ox := 0
		for _, c := range cols {
			y0s = append(y0s, oy*stride)
			x0s = append(x0s, ox*stride)
			ths = append(ths, r*stride)
			tws = append(tws, c*stride)
			ox += c
		}
		oy += r
	}
	return y0s, x0s, ths, tws, nil
}
