package supernet

import (
	"fmt"
	"math/rand"
	"sync"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// Supernet holds the weight-shared parameters of the full search space. Any
// Config selects a submodel that runs directly against slices of these
// weights — switching submodels never copies or reloads parameters, which is
// what makes Murmuration's in-memory model reconfiguration take milliseconds
// (paper §5.1, Fig. 19).
type Supernet struct {
	Arch *Arch

	stemW, stemB *nn.Param
	stemBN       *bnParams
	blocks       [][]*mbBlock // [stage][layerSlot]
	headW, headB *nn.Param
	headBN       *bnParams
	clsW, clsB   *nn.Param

	// wsIdle are the workspaces no run holds (AcquireWorkspace), a stack.
	wsMu   sync.Mutex
	wsIdle []*Workspace
}

type bnParams struct {
	gamma, beta *nn.Param
	runMean     *tensor.Tensor
	runVar      *tensor.Tensor
}

func newBN(name string, c int) *bnParams {
	g := tensor.New(c)
	g.Fill(1)
	rv := tensor.New(c)
	rv.Fill(1)
	return &bnParams{
		gamma:   nn.NewParam(name+".gamma", g),
		beta:    nn.NewParam(name+".beta", tensor.New(c)),
		runMean: tensor.New(c),
		runVar:  rv,
	}
}

// mbBlock stores a mobile inverted-bottleneck block at maximum width/kernel.
type mbBlock struct {
	inC, outC, maxHidden, maxK int
	se                         bool
	stride                     int

	expandW *nn.Param // (maxHidden, inC, 1, 1)
	bn1     *bnParams
	dwW     *nn.Param // (maxHidden, 1, maxK, maxK)
	bn2     *bnParams
	seW1    *nn.Param // (seC, maxHidden)
	seB1    *nn.Param
	seW2    *nn.Param // (maxHidden, seC)
	seB2    *nn.Param
	projW   *nn.Param // (outC, maxHidden, 1, 1)
	bn3     *bnParams
}

// New builds a randomly initialized supernet for the given search space.
func New(a *Arch, seed int64) *Supernet {
	rng := rand.New(rand.NewSource(seed))
	s := &Supernet{Arch: a}

	stemW := tensor.New(a.StemChannels, a.InChannels, 3, 3)
	stemW.KaimingInit(rng, a.InChannels*9)
	s.stemW = nn.NewParam("stem.w", stemW)
	s.stemB = nn.NewParam("stem.b", tensor.New(a.StemChannels))
	s.stemBN = newBN("stem.bn", a.StemChannels)

	maxK := a.MaxKernel()
	maxE := a.MaxExpand()
	cin := a.StemChannels
	for si, st := range a.Stages {
		var stage []*mbBlock
		blockIn := cin
		for li := 0; li < st.MaxDepth; li++ {
			stride := 1
			if li == 0 {
				stride = st.Stride
			}
			b := newMBBlock(fmt.Sprintf("s%d.b%d", si, li), blockIn, st.Width, blockIn*maxE, maxK, stride, st.SE, rng)
			stage = append(stage, b)
			blockIn = st.Width
		}
		s.blocks = append(s.blocks, stage)
		cin = st.Width
	}

	headW := tensor.New(a.HeadChannels, cin, 1, 1)
	headW.KaimingInit(rng, cin)
	s.headW = nn.NewParam("head.w", headW)
	s.headB = nn.NewParam("head.b", tensor.New(a.HeadChannels))
	s.headBN = newBN("head.bn", a.HeadChannels)

	clsW := tensor.New(a.NumClasses, a.HeadChannels)
	clsW.KaimingInit(rng, a.HeadChannels)
	s.clsW = nn.NewParam("cls.w", clsW)
	s.clsB = nn.NewParam("cls.b", tensor.New(a.NumClasses))
	return s
}

func newMBBlock(name string, inC, outC, maxHidden, maxK, stride int, se bool, rng *rand.Rand) *mbBlock {
	b := &mbBlock{inC: inC, outC: outC, maxHidden: maxHidden, maxK: maxK, se: se, stride: stride}
	ew := tensor.New(maxHidden, inC, 1, 1)
	ew.KaimingInit(rng, inC)
	b.expandW = nn.NewParam(name+".expand", ew)
	b.bn1 = newBN(name+".bn1", maxHidden)
	dw := tensor.New(maxHidden, 1, maxK, maxK)
	dw.KaimingInit(rng, maxK*maxK)
	b.dwW = nn.NewParam(name+".dw", dw)
	b.bn2 = newBN(name+".bn2", maxHidden)
	if se {
		seC := maxHidden / 4
		if seC < 1 {
			seC = 1
		}
		w1 := tensor.New(seC, maxHidden)
		w1.KaimingInit(rng, maxHidden)
		b.seW1 = nn.NewParam(name+".se1", w1)
		b.seB1 = nn.NewParam(name+".se1b", tensor.New(seC))
		w2 := tensor.New(maxHidden, seC)
		w2.KaimingInit(rng, seC)
		b.seW2 = nn.NewParam(name+".se2", w2)
		b.seB2 = nn.NewParam(name+".se2b", tensor.New(maxHidden))
	}
	pw := tensor.New(outC, maxHidden, 1, 1)
	pw.KaimingInit(rng, maxHidden)
	b.projW = nn.NewParam(name+".proj", pw)
	b.bn3 = newBN(name+".bn3", outC)
	return b
}

// Params returns every trainable parameter of the supernet.
func (s *Supernet) Params() []*nn.Param {
	ps := []*nn.Param{s.stemW, s.stemB, s.stemBN.gamma, s.stemBN.beta}
	for _, stage := range s.blocks {
		for _, b := range stage {
			ps = append(ps, b.expandW, b.bn1.gamma, b.bn1.beta,
				b.dwW, b.bn2.gamma, b.bn2.beta,
				b.projW, b.bn3.gamma, b.bn3.beta)
			if b.se {
				ps = append(ps, b.seW1, b.seB1, b.seW2, b.seB2)
			}
		}
	}
	ps = append(ps, s.headW, s.headB, s.headBN.gamma, s.headBN.beta, s.clsW, s.clsB)
	return ps
}

// NumParams returns the total scalar parameter count.
func (s *Supernet) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.W.Len()
	}
	return n
}

// ---------------------------------------------------------------------------
// Weight slicing
// ---------------------------------------------------------------------------

// sliceConv1x1 copies the (outC, inC) top-left block of a 1x1 conv weight.
func sliceConv1x1(full *tensor.Tensor, outC, inC int) *tensor.Tensor {
	w := tensor.New(outC, inC, 1, 1)
	fullIn := full.Shape[1]
	for o := 0; o < outC; o++ {
		copy(w.Data[o*inC:(o+1)*inC], full.Data[o*fullIn:o*fullIn+inC])
	}
	return w
}

func scatterConv1x1(fullG, g *tensor.Tensor, outC, inC int) {
	fullIn := fullG.Shape[1]
	for o := 0; o < outC; o++ {
		dst := fullG.Data[o*fullIn : o*fullIn+inC]
		src := g.Data[o*inC : (o+1)*inC]
		for i := range src {
			dst[i] += src[i]
		}
	}
}

// sliceDW center-crops the first `ch` depthwise kernels from maxK to k.
func sliceDW(full *tensor.Tensor, ch, k int) *tensor.Tensor {
	maxK := full.Shape[2]
	off := (maxK - k) / 2
	w := tensor.New(ch, 1, k, k)
	for c := 0; c < ch; c++ {
		for y := 0; y < k; y++ {
			srcBase := c*maxK*maxK + (y+off)*maxK + off
			copy(w.Data[c*k*k+y*k:c*k*k+(y+1)*k], full.Data[srcBase:srcBase+k])
		}
	}
	return w
}

func scatterDW(fullG, g *tensor.Tensor, ch, k int) {
	maxK := fullG.Shape[2]
	off := (maxK - k) / 2
	for c := 0; c < ch; c++ {
		for y := 0; y < k; y++ {
			dst := fullG.Data[c*maxK*maxK+(y+off)*maxK+off:]
			src := g.Data[c*k*k+y*k : c*k*k+(y+1)*k]
			for i := range src {
				dst[i] += src[i]
			}
		}
	}
}

// sliceLinear copies the (out, in) top-left block of a linear weight.
func sliceLinear(full *tensor.Tensor, out, in int) *tensor.Tensor {
	w := tensor.New(out, in)
	fullIn := full.Shape[1]
	for o := 0; o < out; o++ {
		copy(w.Data[o*in:(o+1)*in], full.Data[o*fullIn:o*fullIn+in])
	}
	return w
}

func scatterLinear(fullG, g *tensor.Tensor, out, in int) {
	fullIn := fullG.Shape[1]
	for o := 0; o < out; o++ {
		dst := fullG.Data[o*fullIn : o*fullIn+in]
		src := g.Data[o*in : (o+1)*in]
		for i := range src {
			dst[i] += src[i]
		}
	}
}

func sliceVec(full *tensor.Tensor, n int) *tensor.Tensor {
	v := tensor.New(n)
	copy(v.Data, full.Data[:n])
	return v
}

func scatterVec(fullG, g *tensor.Tensor, n int) {
	for i := 0; i < n; i++ {
		fullG.Data[i] += g.Data[i]
	}
}
