package nn

import (
	"math"

	"murmuration/internal/tensor"
)

// Param couples a trainable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	grad *tensor.Tensor
}

// NewParam wraps w as a trainable parameter. The gradient accumulator, as
// large as w, is not allocated here: it appears when training first asks for
// it (Grad), so a network that only serves inference never holds one.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w}
}

// Grad returns the gradient accumulator, allocating it zeroed on first use.
// Every write to a gradient goes through here.
func (p *Param) Grad() *tensor.Tensor {
	if p.grad == nil {
		p.grad = tensor.New(p.W.Shape...)
	}
	return p.grad
}

// HasGrad reports whether the parameter has a gradient accumulator, that is
// whether training ever reached it. An optimizer leaves a parameter without
// one alone.
func (p *Param) HasGrad() bool { return p.grad != nil }

// ZeroGrad clears the gradient, if there is one.
func (p *Param) ZeroGrad() {
	if p.grad != nil {
		p.grad.Zero()
	}
}

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and clears gradients.
	Step(params []*Param)
}

// SGD is stochastic gradient descent with classical momentum and optional
// weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.grad == nil {
			continue
		}
		v := s.velocity[p]
		if v == nil {
			v = tensor.New(p.W.Shape...)
			s.velocity[p] = v
		}
		lr := float32(s.LR)
		mu := float32(s.Momentum)
		wd := float32(s.WeightDecay)
		for i := range p.W.Data {
			g := p.grad.Data[i] + wd*p.W.Data[i]
			v.Data[i] = mu*v.Data[i] + g
			p.W.Data[i] -= lr * v.Data[i]
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	t       int
	m, v    map[*Param]*tensor.Tensor
	MaxGrad float64 // per-element gradient clip; 0 disables
}

// NewAdam returns an Adam optimizer with the usual defaults for unset betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor), v: make(map[*Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.grad == nil {
			continue
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			v = tensor.New(p.W.Shape...)
			a.m[p] = m
			a.v[p] = v
		}
		b1 := float32(a.Beta1)
		b2 := float32(a.Beta2)
		clip := float32(a.MaxGrad)
		for i := range p.W.Data {
			g := p.grad.Data[i]
			if clip > 0 {
				if g > clip {
					g = clip
				} else if g < -clip {
					g = -clip
				}
			}
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			v.Data[i] = b2*v.Data[i] + (1-b2)*g*g
			mhat := float64(m.Data[i]) / c1
			vhat := float64(v.Data[i]) / c2
			p.W.Data[i] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Eps))
		}
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var total float64
	for _, p := range params {
		if p.grad == nil {
			continue
		}
		for _, g := range p.grad.Data {
			total += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			if p.grad != nil {
				p.grad.Scale(scale)
			}
		}
	}
	return norm
}
