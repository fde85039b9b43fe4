// Package policy implements Murmuration's RL policy network (paper Fig. 5):
// a single-layer LSTM backbone whose input encodes the SLO constraint, the
// per-device network conditions/types, and the decisions made so far, with a
// separate fully connected head per action category (resolution, depth,
// kernel, expansion width, spatial partition, quantization, and per-partition
// device selection) plus a value head for PPO.
package policy

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"murmuration/internal/device"
	"murmuration/internal/lstm"
	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/tensor"
)

// Policy is the goal-conditioned decision network.
type Policy struct {
	Env    *env.Env
	Hidden int

	lstm      *lstm.LSTM
	heads     [env.NumActionTypes]*lstm.Head
	valueHead *lstm.Head
	headSizes [env.NumActionTypes]int
	inDim     int
	maxHead   int
}

// New creates a policy for an environment. hidden is the LSTM width (the
// paper uses 256; smaller widths train faster with the same curve shape).
func New(e *env.Env, hidden int, seed int64) *Policy {
	rng := rand.New(rand.NewSource(seed))
	p := &Policy{Env: e, Hidden: hidden}
	p.headSizes = e.HeadSizes()
	for _, s := range p.headSizes {
		if s > p.maxHead {
			p.maxHead = s
		}
	}
	// Input layout: constraint features + prev-choice one-hot + prev action
	// type one-hot + current action type one-hot.
	p.inDim = p.constraintDim() + p.maxHead + 2*env.NumActionTypes
	p.lstm = lstm.New(p.inDim, hidden, rng)
	for t := 0; t < env.NumActionTypes; t++ {
		p.heads[t] = lstm.NewHead(fmt.Sprintf("head.%s", env.ActionType(t)), hidden, p.headSizes[t], rng)
	}
	p.valueHead = lstm.NewHead("head.value", hidden, 1, rng)
	return p
}

// Load builds the policy a checkpoint file holds for e. The LSTM width is
// read from the stored recurrent weights, so the caller need not know it.
func Load(e *env.Env, path string) (*Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	stored, err := nn.ReadCheckpoint(f)
	if err != nil {
		return nil, err
	}
	for _, s := range stored {
		// lstm.wh is (4·hidden, hidden). Checking both dimensions bounds the
		// width by what was decoded, so a forged shape cannot size the model.
		if s.Name == "lstm.wh" {
			if h := s.W.Shape; s.W.Rank() != 2 || h[1] <= 0 || h[0] != 4*h[1] {
				return nil, fmt.Errorf("policy: %s: lstm.wh shape %v is not (4h, h)", path, h)
			}
			p := New(e, s.W.Shape[1], 1)
			return p, nn.CopyParams(p.Params(), stored)
		}
	}
	return nil, fmt.Errorf("policy: %s holds no LSTM weights", path)
}

// Params returns all trainable parameters.
func (p *Policy) Params() []*nn.Param {
	ps := p.lstm.Params()
	for _, h := range p.heads {
		ps = append(ps, h.Params()...)
	}
	ps = append(ps, p.valueHead.Params()...)
	return ps
}

// NumParams returns the scalar parameter count.
func (p *Policy) NumParams() int {
	n := 0
	for _, pr := range p.Params() {
		n += pr.W.Len()
	}
	return n
}

func (p *Policy) constraintDim() int {
	return 3 + 3*(p.Env.NumDevices()-1)
}

// constraintFeatures encodes the goal and task: SLO type one-hot + value,
// then (bandwidth, delay, device-type) per remote device.
func (p *Policy) constraintFeatures(c env.Constraint) []float32 {
	fs := make([]float32, 0, p.constraintDim())
	if c.Type == env.LatencySLO {
		fs = append(fs, 1, 0, float32(c.LatencyMs/2000))
	} else {
		fs = append(fs, 0, 1, float32(c.AccuracyPct/100))
	}
	for i := 0; i < p.Env.NumDevices()-1; i++ {
		var bw, dl float64
		if i < len(c.BandwidthMbps) {
			bw = c.BandwidthMbps[i]
		}
		if i < len(c.DelayMs) {
			dl = c.DelayMs[i]
		}
		kind := float32(0)
		if p.Env.Kinds[i+1] == device.GPUDesktop {
			kind = 1
		}
		fs = append(fs, float32(bw/500), float32(dl/100), kind)
	}
	return fs
}

// stepInput builds the LSTM input for one step.
func (p *Policy) stepInput(cf []float32, prevChoice int, prevType env.ActionType, hasPrev bool, curType env.ActionType) *tensor.Tensor {
	x := tensor.New(1, p.inDim)
	copy(x.Data, cf)
	off := len(cf)
	if hasPrev {
		x.Data[off+prevChoice] = 1
		x.Data[off+p.maxHead+int(prevType)] = 1
	}
	x.Data[off+p.maxHead+env.NumActionTypes+int(curType)] = 1
	return x
}

// maskedLogits applies the validity mask (spec.NumChoices may be narrower
// than the head) and returns the masked logits.
func maskedLogits(logits *tensor.Tensor, numChoices int) *tensor.Tensor {
	out := logits.Clone()
	for i := numChoices; i < out.Shape[1]; i++ {
		out.Data[i] = -1e9
	}
	return out
}

// sampleRow draws an index from the softmax of a (1, K) logits row.
func sampleRow(logits *tensor.Tensor, rng *rand.Rand) int {
	probs := nn.Softmax(logits)
	u := rng.Float64()
	var acc float64
	for i, v := range probs.Data {
		acc += float64(v)
		if u <= acc {
			return i
		}
	}
	return len(probs.Data) - 1
}

func argmaxRow(logits *tensor.Tensor) int {
	best := 0
	for i := 1; i < logits.Shape[1]; i++ {
		if logits.Data[i] > logits.Data[best] {
			best = i
		}
	}
	return best
}

// Rollout samples a full decision episode under constraint c. epsilon is the
// probability of replacing each action with a uniform random one
// (epsilon-greedy exploration, the "E" in SUPREME). Returns the choice
// sequence and the policy log-probability of each chosen action.
func (p *Policy) Rollout(c env.Constraint, rng *rand.Rand, epsilon float64) ([]int, []float64, error) {
	w := p.Env.NewWalker()
	cf := p.constraintFeatures(c)
	state := p.lstm.ZeroState(1)
	var choices []int
	var logps []float64
	prevChoice := 0
	prevType := env.ActionType(0)
	hasPrev := false
	for !w.Done() {
		spec := w.Next()
		x := p.stepInput(cf, prevChoice, prevType, hasPrev, spec.Type)
		var h *tensor.Tensor
		h, state, _ = p.lstm.Step(x, state)
		logits, _ := p.heads[spec.Type].Forward(h)
		ml := maskedLogits(logits, spec.NumChoices)
		var choice int
		if epsilon > 0 && rng.Float64() < epsilon {
			choice = rng.Intn(spec.NumChoices)
		} else {
			choice = sampleRow(ml, rng)
		}
		probs := nn.Softmax(ml)
		lp := math.Log(math.Max(float64(probs.Data[choice]), 1e-12))
		if err := w.Apply(choice); err != nil {
			return nil, nil, err
		}
		choices = append(choices, choice)
		logps = append(logps, lp)
		prevChoice, prevType, hasPrev = choice, spec.Type, true
	}
	return choices, logps, nil
}

// Greedy decodes the argmax decision for constraint c.
func (p *Policy) Greedy(c env.Constraint) ([]int, error) {
	w := p.Env.NewWalker()
	cf := p.constraintFeatures(c)
	state := p.lstm.ZeroState(1)
	var choices []int
	prevChoice := 0
	prevType := env.ActionType(0)
	hasPrev := false
	for !w.Done() {
		spec := w.Next()
		x := p.stepInput(cf, prevChoice, prevType, hasPrev, spec.Type)
		var h *tensor.Tensor
		h, state, _ = p.lstm.Step(x, state)
		logits, _ := p.heads[spec.Type].Forward(h)
		choice := argmaxRow(maskedLogits(logits, spec.NumChoices))
		if err := w.Apply(choice); err != nil {
			return nil, err
		}
		choices = append(choices, choice)
		prevChoice, prevType, hasPrev = choice, spec.Type, true
	}
	return choices, nil
}

// GreedyDecision runs Greedy and decodes the result.
func (p *Policy) GreedyDecision(c env.Constraint) (*env.Decision, error) {
	choices, err := p.Greedy(c)
	if err != nil {
		return nil, err
	}
	return p.Env.Decode(choices)
}

// ForwardResult holds the teacher-forced forward pass of a recorded episode,
// ready for a caller-supplied per-step gradient.
type ForwardResult struct {
	Specs      []env.ActionSpec
	Logits     []*tensor.Tensor // masked (1, K_head) logits per step
	Values     []float64        // value-head outputs per step
	lstmCaches []*lstm.StepCache
	headCaches []*nn.LinearCache
	valCaches  []*nn.LinearCache
	hiddens    []*tensor.Tensor
}

// LogProb returns the log-probability of the recorded choice at step t.
func (fr *ForwardResult) LogProb(t int, choice int) float64 {
	probs := nn.Softmax(fr.Logits[t])
	return math.Log(math.Max(float64(probs.Data[choice]), 1e-12))
}

// Forward teacher-forces the policy through a recorded choice sequence under
// constraint c (which may differ from the constraint the episode was
// collected under — that is exactly hindsight relabeling).
func (p *Policy) Forward(c env.Constraint, choices []int) (*ForwardResult, error) {
	specs, err := p.Env.Specs(choices)
	if err != nil {
		return nil, err
	}
	cf := p.constraintFeatures(c)
	state := p.lstm.ZeroState(1)
	fr := &ForwardResult{Specs: specs}
	prevChoice := 0
	prevType := env.ActionType(0)
	hasPrev := false
	for t, spec := range specs {
		x := p.stepInput(cf, prevChoice, prevType, hasPrev, spec.Type)
		var h *tensor.Tensor
		var sc *lstm.StepCache
		h, state, sc = p.lstm.Step(x, state)
		logits, hc := p.heads[spec.Type].Forward(h)
		val, vc := p.valueHead.Forward(h)
		fr.lstmCaches = append(fr.lstmCaches, sc)
		fr.headCaches = append(fr.headCaches, hc)
		fr.valCaches = append(fr.valCaches, vc)
		fr.hiddens = append(fr.hiddens, h)
		fr.Logits = append(fr.Logits, maskedLogits(logits, spec.NumChoices))
		fr.Values = append(fr.Values, float64(val.Data[0]))
		prevChoice, prevType, hasPrev = choices[t], spec.Type, true
	}
	return fr, nil
}

// Backward accumulates gradients for per-step dLogits (same shapes as
// fr.Logits; nil entries contribute nothing) and optional per-step value
// gradients (dValues may be nil). Gradients flow through the heads and BPTT
// through the LSTM.
func (p *Policy) Backward(fr *ForwardResult, dLogits []*tensor.Tensor, dValues []float64) {
	T := len(fr.Specs)
	dhs := make([]*tensor.Tensor, T)
	for t := 0; t < T; t++ {
		var dh *tensor.Tensor
		if dLogits != nil && dLogits[t] != nil {
			dh = p.heads[fr.Specs[t].Type].Backward(dLogits[t], fr.headCaches[t])
		}
		if dValues != nil && dValues[t] != 0 {
			dv := tensor.New(1, 1)
			dv.Data[0] = float32(dValues[t])
			dhv := p.valueHead.Backward(dv, fr.valCaches[t])
			if dh == nil {
				dh = dhv
			} else {
				dh.Add(dhv)
			}
		}
		dhs[t] = dh
	}
	p.lstm.BackwardParams(fr.lstmCaches, dhs)
}
