// Package lstm implements the 1-layer LSTM that backs Murmuration's RL
// policy (paper Fig. 5: "an LSTM is preferred over a transformer ... due to
// its lower computational power requirement"). It provides a step API for
// acting (one decision at a time with carried state) and full
// backpropagation-through-time for training, plus the per-action-type fully
// connected heads.
package lstm

import (
	"math/rand"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// LSTM is a single-layer LSTM with input size I and hidden size H. Gate
// order in the stacked weight matrices is [input, forget, cell, output].
type LSTM struct {
	InputSize  int
	HiddenSize int

	Wx *nn.Param // (4H, I)
	Wh *nn.Param // (4H, H)
	B  *nn.Param // (4H)
}

// New creates an LSTM with Xavier-style initialization and forget-gate bias 1
// (standard practice for stable early training).
func New(inputSize, hiddenSize int, rng *rand.Rand) *LSTM {
	l := &LSTM{InputSize: inputSize, HiddenSize: hiddenSize}
	wx := tensor.New(4*hiddenSize, inputSize)
	wx.KaimingInit(rng, inputSize)
	wh := tensor.New(4*hiddenSize, hiddenSize)
	wh.KaimingInit(rng, hiddenSize)
	b := tensor.New(4 * hiddenSize)
	for i := hiddenSize; i < 2*hiddenSize; i++ {
		b.Data[i] = 1 // forget gate bias
	}
	l.Wx = nn.NewParam("lstm.wx", wx)
	l.Wh = nn.NewParam("lstm.wh", wh)
	l.B = nn.NewParam("lstm.b", b)
	return l
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []*nn.Param { return []*nn.Param{l.Wx, l.Wh, l.B} }

// State is the recurrent state (h, c), each (N, H).
type State struct {
	H *tensor.Tensor
	C *tensor.Tensor
}

// ZeroState returns an all-zero state for batch size n.
func (l *LSTM) ZeroState(n int) *State {
	return &State{H: tensor.New(n, l.HiddenSize), C: tensor.New(n, l.HiddenSize)}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{H: s.H.Clone(), C: s.C.Clone()}
}

// stepCache stores everything BPTT needs for one timestep.
type stepCache struct {
	x     *tensor.Tensor // (N, I)
	hPrev *tensor.Tensor // (N, H)
	cPrev *tensor.Tensor // (N, H)
	i, f  *tensor.Tensor // gate activations (N, H)
	g, o  *tensor.Tensor
	c     *tensor.Tensor // new cell state
	tanhC *tensor.Tensor
}

// Step advances one timestep: x is (N, I); returns the new hidden output
// (N, H), the next state, and an opaque cache for Backward.
func (l *LSTM) Step(x *tensor.Tensor, s *State) (*tensor.Tensor, *State, *StepCache) {
	n := x.Shape[0]
	H := l.HiddenSize

	// gates = x·Wxᵀ + h·Whᵀ + b  → (N, 4H)
	gx := tensor.MatMulTransB(x, l.Wx.W)
	gh := tensor.MatMulTransB(s.H, l.Wh.W)
	gates := gx.Add(gh)
	for r := 0; r < n; r++ {
		row := gates.Data[r*4*H : (r+1)*4*H]
		for j := range row {
			row[j] += l.B.W.Data[j]
		}
	}

	iG := tensor.New(n, H)
	fG := tensor.New(n, H)
	gG := tensor.New(n, H)
	oG := tensor.New(n, H)
	for r := 0; r < n; r++ {
		base := r * 4 * H
		for j := 0; j < H; j++ {
			iG.Data[r*H+j] = gates.Data[base+j]
			fG.Data[r*H+j] = gates.Data[base+H+j]
			gG.Data[r*H+j] = gates.Data[base+2*H+j]
			oG.Data[r*H+j] = gates.Data[base+3*H+j]
		}
	}
	iA := nn.SigmoidFwd(iG)
	fA := nn.SigmoidFwd(fG)
	gA := nn.TanhFwd(gG)
	oA := nn.SigmoidFwd(oG)

	c := tensor.New(n, H)
	for k := range c.Data {
		c.Data[k] = fA.Data[k]*s.C.Data[k] + iA.Data[k]*gA.Data[k]
	}
	tc := nn.TanhFwd(c)
	h := tensor.New(n, H)
	for k := range h.Data {
		h.Data[k] = oA.Data[k] * tc.Data[k]
	}

	cache := &StepCache{stepCache{
		x: x, hPrev: s.H, cPrev: s.C,
		i: iA, f: fA, g: gA, o: oA, c: c, tanhC: tc,
	}}
	return h, &State{H: h, C: c}, cache
}

// StepCache is the exported opaque cache type for one timestep.
type StepCache struct{ c stepCache }

// Backward runs BPTT over a recorded sequence of step caches. dhs[t] is the
// gradient of the loss w.r.t. the hidden output at step t (nil for steps with
// no loss). Gradients accumulate into the LSTM parameters; the returned
// slice holds the gradient w.r.t. each step's input.
func (l *LSTM) Backward(caches []*StepCache, dhs []*tensor.Tensor) []*tensor.Tensor {
	if len(caches) != len(dhs) {
		panic("lstm: caches/dhs length mismatch")
	}
	T := len(caches)
	if T == 0 {
		return nil
	}
	n := caches[0].c.x.Shape[0]
	H := l.HiddenSize
	dxs := make([]*tensor.Tensor, T)

	dhNext := tensor.New(n, H)
	dcNext := tensor.New(n, H)

	for t := T - 1; t >= 0; t-- {
		cc := &caches[t].c
		dh := dhNext.Clone()
		if dhs[t] != nil {
			dh.Add(dhs[t])
		}

		// h = o · tanh(c)
		do := tensor.New(n, H)
		dc := dcNext.Clone()
		for k := range dh.Data {
			do.Data[k] = dh.Data[k] * cc.tanhC.Data[k]
			dc.Data[k] += dh.Data[k] * cc.o.Data[k] * (1 - cc.tanhC.Data[k]*cc.tanhC.Data[k])
		}

		// c = f·cPrev + i·g
		di := tensor.New(n, H)
		df := tensor.New(n, H)
		dg := tensor.New(n, H)
		dcPrev := tensor.New(n, H)
		for k := range dc.Data {
			di.Data[k] = dc.Data[k] * cc.g.Data[k]
			df.Data[k] = dc.Data[k] * cc.cPrev.Data[k]
			dg.Data[k] = dc.Data[k] * cc.i.Data[k]
			dcPrev.Data[k] = dc.Data[k] * cc.f.Data[k]
		}

		// Through the gate nonlinearities.
		diPre := nn.SigmoidBwd(di, cc.i)
		dfPre := nn.SigmoidBwd(df, cc.f)
		dgPre := nn.TanhBwd(dg, cc.g)
		doPre := nn.SigmoidBwd(do, cc.o)

		// Stack to (N, 4H).
		dGates := tensor.New(n, 4*H)
		for r := 0; r < n; r++ {
			base := r * 4 * H
			for j := 0; j < H; j++ {
				dGates.Data[base+j] = diPre.Data[r*H+j]
				dGates.Data[base+H+j] = dfPre.Data[r*H+j]
				dGates.Data[base+2*H+j] = dgPre.Data[r*H+j]
				dGates.Data[base+3*H+j] = doPre.Data[r*H+j]
			}
		}

		// gates = x·Wxᵀ + hPrev·Whᵀ + b
		l.Wx.Grad().Add(tensor.MatMulTransA(dGates, cc.x))
		l.Wh.Grad().Add(tensor.MatMulTransA(dGates, cc.hPrev))
		bg := l.B.Grad().Data
		for r := 0; r < n; r++ {
			row := dGates.Data[r*4*H : (r+1)*4*H]
			for j, v := range row {
				bg[j] += v
			}
		}
		dxs[t] = tensor.MatMul(dGates, l.Wx.W)
		dhNext = tensor.MatMul(dGates, l.Wh.W)
		dcNext = dcPrev
	}
	return dxs
}

// Head is a fully connected output head mapping the hidden state to logits
// for one action type (paper: "each action type uses a different fully
// connected layer").
type Head struct {
	Name string
	W    *nn.Param // (K, H)
	B    *nn.Param // (K)
}

// NewHead creates a head with K outputs over hidden size H.
func NewHead(name string, hiddenSize, k int, rng *rand.Rand) *Head {
	w := tensor.New(k, hiddenSize)
	w.KaimingInit(rng, hiddenSize)
	return &Head{Name: name, W: nn.NewParam(name+".w", w), B: nn.NewParam(name+".b", tensor.New(k))}
}

// Params returns the head's trainable parameters.
func (h *Head) Params() []*nn.Param { return []*nn.Param{h.W, h.B} }

// Forward computes logits (N, K) from hidden (N, H).
func (h *Head) Forward(hidden *tensor.Tensor) (*tensor.Tensor, *nn.LinearCache) {
	return nn.LinearFwd(hidden, h.W.W, h.B.W)
}

// Backward accumulates parameter gradients and returns dHidden.
func (h *Head) Backward(dLogits *tensor.Tensor, cache *nn.LinearCache) *tensor.Tensor {
	dx, dw, db := nn.LinearBwd(dLogits, cache)
	h.W.Grad().Add(dw)
	h.B.Grad().Add(db)
	return dx
}
