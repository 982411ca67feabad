package nn

import "math"

// Optimizer updates parameters from accumulated gradients.
type Optimizer interface {
	// Step applies one update using the gradients currently accumulated in
	// the network, then zeroes them.
	Step(net *MLP)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity [][]float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step implements Optimizer.
func (o *SGD) Step(net *MLP) {
	params, grads := net.Params()
	if o.velocity == nil {
		o.velocity = make([][]float32, len(params))
		for i, p := range params {
			o.velocity[i] = make([]float32, len(p))
		}
	}
	mom, lr := float32(o.Momentum), float32(o.LR)
	for i, p := range params {
		g := grads[i]
		v := o.velocity[i]
		for j := range p {
			v[j] = float32(mom*v[j]) - float32(lr*g[j])
			p[j] += v[j]
		}
	}
	net.ZeroGrad()
}

// Adam is the Adam optimizer (Kingma & Ba), the paper's choice
// ("AdamOptimizer with a learning rate of 0.001").
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float32
}

// NewAdam returns Adam with the standard betas and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// State exposes the step count and moment estimates for checkpointing. The
// returned slices are live views, not copies; m and v are nil until the
// first Step.
func (o *Adam) State() (t int, m, v [][]float32) { return o.t, o.m, o.v }

// Restore sets the step count and moment estimates from a checkpoint. Nil
// moments reproduce a freshly constructed optimizer (Step allocates lazily).
func (o *Adam) Restore(t int, m, v [][]float32) { o.t, o.m, o.v = t, m, v }

// Step implements Optimizer. The bias corrections are folded into two
// float64-precomputed scalars so the per-parameter loop is pure float32:
// with bc1 = 1-β1ᵗ and bc2 = 1-β2ᵗ,
//
//	p -= lr · (m/bc1) / (√(v/bc2) + ε)  ≡  p -= α_t · m / (√v + ε̂)
//
// where α_t = lr·√bc2/bc1 and ε̂ = ε·√bc2.
func (o *Adam) Step(net *MLP) {
	params, grads := net.Params()
	if o.m == nil {
		o.m = make([][]float32, len(params))
		o.v = make([][]float32, len(params))
		for i, p := range params {
			o.m[i] = make([]float32, len(p))
			o.v[i] = make([]float32, len(p))
		}
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	alphaT := float32(o.LR * math.Sqrt(bc2) / bc1)
	epsHat := float32(o.Eps * math.Sqrt(bc2))
	b1, omb1 := float32(o.Beta1), float32(1-o.Beta1)
	b2, omb2 := float32(o.Beta2), float32(1-o.Beta2)
	for i, p := range params {
		g := grads[i]
		m, v := o.m[i], o.v[i]
		g = g[:len(p)]
		m = m[:len(p)]
		v = v[:len(p)]
		for j := range p {
			gj := g[j]
			mj := float32(b1*m[j]) + float32(omb1*gj)
			vj := float32(b2*v[j]) + float32(omb2*gj*gj)
			m[j], v[j] = mj, vj
			p[j] -= alphaT * mj / (float32(math.Sqrt(float64(vj))) + epsHat)
		}
	}
	net.ZeroGrad()
}
