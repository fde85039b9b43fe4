package supernet

import (
	"fmt"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// The Exec* methods and their Workspace forms are the runtime executor's entry
// points: they run one piece of the network (stem, a single block on a single
// tile, or the head) in inference mode against the in-memory shared weights.
// The distributed scheduler composes them across devices; quantization of
// inputs happens on the wire, not here.
//
// There is one implementation of each piece, which computes into a
// destination with its intermediates in a Workspace. Workspace.Stem, Block
// and Head put the result in the workspace too: it is valid until the run
// ends, or until the workspace hands that buffer out again (see Out). ExecStem,
// ExecBlock and ExecHead are the same calls for a caller with no run of its
// own: they borrow a workspace for the intermediates and return a tensor that
// is the caller's to keep.

// stemOpts is the stem's 3×3 stride-2 convolution.
var stemOpts = tensor.ConvOpts{Stride: 2, Padding: 1}

// ExecStem runs the stem on x (N,C,H,W at the config resolution).
func (s *Supernet) ExecStem(x *tensor.Tensor) *tensor.Tensor {
	ws := s.AcquireWorkspace()
	defer ws.Release()
	oh, ow := stemOutSize(x)
	y := tensor.New(x.Shape[0], s.Arch.StemChannels, oh, ow)
	s.stemInto(ws, y, x)
	return y
}

// Image hands out the workspace's buffer for the input at the config's
// resolution, (n,c,res,res), for a caller to fill — a batch stacked row by row
// — and pass to Stem, which then reads it in place.
func (ws *Workspace) Image(n, c, res int) *tensor.Tensor {
	return ws.buf(roleImage, n, c, res, res)
}

// Stem resizes x (N,C,H,W) to res×res unless it already is, and runs the stem
// on it. x is only read.
func (ws *Workspace) Stem(x *tensor.Tensor, res int) *tensor.Tensor {
	if x.Shape[2] != res || x.Shape[3] != res {
		img := ws.Image(x.Shape[0], x.Shape[1], res)
		tensor.BilinearResizeInto(img, x, &ws.resize)
		x = img
	}
	oh, ow := stemOutSize(x)
	y := ws.Out(x.Shape[0], ws.net.Arch.StemChannels, oh, ow)
	ws.net.stemInto(ws, y, x)
	return y
}

func stemOutSize(x *tensor.Tensor) (oh, ow int) {
	return StemOutSize(x.Shape[2]), StemOutSize(x.Shape[3])
}

// StemOutSize is the side of the stem's output map for an input side of n.
func StemOutSize(n int) int {
	return tensor.ConvOutSize(n, 3, stemOpts.Stride, stemOpts.Padding)
}

func (s *Supernet) stemInto(ws *Workspace, dst, x *tensor.Tensor) {
	cols := ws.buf(roleCols, x.Shape[0], x.Shape[1]*9, dst.Shape[2], dst.Shape[3])
	tensor.Conv2DInto(dst, cols, x, s.stemW.W, s.stemB.W, stemOpts)
	nn.BatchNormInPlace(dst, s.stemBN.gamma.W, s.stemBN.beta.W, bnEps, true)
}

// ExecBlock runs MBConv block (stage, index) on one input tile under an
// elastic setting, including the residual shortcut when applicable. The
// caller is responsible for spatial tiling; the tile is treated as a full
// FDSP tile (zero padding at its borders).
func (s *Supernet) ExecBlock(stage, index int, x *tensor.Tensor, ls LayerSetting) (*tensor.Tensor, error) {
	b, err := s.checkBlock(stage, index, x, ls)
	if err != nil {
		return nil, err
	}
	ws := s.AcquireWorkspace()
	defer ws.Release()
	y := tensor.New(x.Shape[0], b.outC, x.Shape[2]/b.stride, x.Shape[3]/b.stride)
	s.blockInto(ws, y, b, x, ls)
	return y, nil
}

// Block is ExecBlock within a run: the next block output of the workspace. x
// is only read; it may be the workspace's own (the previous block's output,
// or that output quantized).
func (ws *Workspace) Block(stage, index int, x *tensor.Tensor, ls LayerSetting) (*tensor.Tensor, error) {
	b, err := ws.net.checkBlock(stage, index, x, ls)
	if err != nil {
		return nil, err
	}
	y := ws.Out(x.Shape[0], b.outC, x.Shape[2]/b.stride, x.Shape[3]/b.stride)
	ws.net.blockInto(ws, y, b, x, ls)
	return y, nil
}

func (s *Supernet) blockInto(ws *Workspace, dst *tensor.Tensor, b *mbBlock, x *tensor.Tensor, ls LayerSetting) {
	s.tileInfer(ws, dst, b, x, ls)
	if b.stride == 1 && b.inC == b.outC {
		dst.Add(x)
	}
}

// checkBlock resolves block (stage, index) and checks everything the kernels
// index by: tiles and settings arrive off the wire, so a malformed request is
// an error, not a panic.
func (s *Supernet) checkBlock(stage, index int, x *tensor.Tensor, ls LayerSetting) (*mbBlock, error) {
	if stage < 0 || stage >= len(s.blocks) {
		return nil, fmt.Errorf("supernet: stage %d out of range", stage)
	}
	if index < 0 || index >= len(s.blocks[stage]) {
		return nil, fmt.Errorf("supernet: block %d out of range in stage %d", index, stage)
	}
	b := s.blocks[stage][index]
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
	return b, nil
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
	ws := s.AcquireWorkspace()
	defer ws.Release()
	return ws.Head(x)
}

// Head is ExecHead within a run. The head's feature map and its pool are the
// workspace's: the logits are allocated, the caller's to keep past the run.
func (ws *Workspace) Head(x *tensor.Tensor) *tensor.Tensor {
	s := ws.net
	y := ws.buf(roleExpand, x.Shape[0], s.Arch.HeadChannels, x.Shape[2], x.Shape[3])
	tensor.Conv1x1Into(y, x, s.headW.W, s.headB.W, s.Arch.HeadChannels)
	nn.BatchNormInPlace(y, s.headBN.gamma.W, s.headBN.beta.W, bnEps, true)
	pool := ws.buf(rolePool, x.Shape[0], s.Arch.HeadChannels)
	tensor.AvgPoolGlobalInto(pool, y)
	return nn.LinearView(pool, s.clsW.W, s.clsB.W, s.Arch.NumClasses)
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
