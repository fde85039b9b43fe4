package policy

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"murmuration/internal/device"
	"murmuration/internal/nas"
	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func tinyEnv() *env.Env {
	a := supernet.TinyArch(4)
	return env.New(a, nas.NewCalibratedPredictor(a), []device.Kind{device.RaspberryPi4, device.GPUDesktop})
}

func testConstraint() env.Constraint {
	return env.Constraint{
		Type: env.LatencySLO, LatencyMs: 200,
		BandwidthMbps: []float64{100}, DelayMs: []float64{20},
	}
}

func TestRolloutProducesValidEpisodes(t *testing.T) {
	e := tinyEnv()
	p := New(e, 16, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		choices, logps, err := p.Rollout(testConstraint(), rng, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if len(choices) != len(logps) {
			t.Fatal("choices/logps length mismatch")
		}
		if _, err := e.Decode(choices); err != nil {
			t.Fatalf("rollout %d produced invalid episode: %v", i, err)
		}
		for _, lp := range logps {
			if lp > 0 || math.IsNaN(lp) {
				t.Fatalf("invalid log-prob %v", lp)
			}
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	e := tinyEnv()
	p := New(e, 16, 2)
	c := testConstraint()
	a, err := p.Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Greedy(c)
	if len(a) != len(b) {
		t.Fatal("greedy length varies")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy must be deterministic")
		}
	}
	if _, err := p.GreedyDecision(c); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyConditionsOnConstraint(t *testing.T) {
	// Different constraints should generally produce different hidden
	// trajectories; with an untrained net the logits differ at least.
	e := tinyEnv()
	p := New(e, 16, 3)
	c1 := testConstraint()
	c2 := c1
	c2.LatencyMs = 2000
	c2.BandwidthMbps = []float64{500}
	fr1, err := p.Forward(c1, mustGreedy(t, p, c1))
	if err != nil {
		t.Fatal(err)
	}
	fr2, err := p.Forward(c2, mustGreedy(t, p, c1))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range fr1.Logits[0].Data {
		diff += math.Abs(float64(fr1.Logits[0].Data[i] - fr2.Logits[0].Data[i]))
	}
	if diff < 1e-9 {
		t.Fatal("constraint features do not reach the logits")
	}
}

func mustGreedy(t *testing.T, p *Policy, c env.Constraint) []int {
	t.Helper()
	ch, err := p.Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestForwardMatchesRolloutShapes(t *testing.T) {
	e := tinyEnv()
	p := New(e, 16, 4)
	rng := rand.New(rand.NewSource(4))
	choices, _, err := p.Rollout(testConstraint(), rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := p.Forward(testConstraint(), choices)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Logits) != len(choices) || len(fr.Values) != len(choices) {
		t.Fatal("forward result length mismatch")
	}
	for t2, spec := range fr.Specs {
		if fr.Logits[t2].Shape[1] < spec.NumChoices {
			t.Fatal("head narrower than spec")
		}
		// Masked entries must be overwhelmingly improbable.
		probs := nn.Softmax(fr.Logits[t2])
		for i := spec.NumChoices; i < probs.Shape[1]; i++ {
			if probs.Data[i] > 1e-6 {
				t.Fatalf("masked choice %d has probability %v", i, probs.Data[i])
			}
		}
	}
}

func TestEpsilonOneIsUniformRandom(t *testing.T) {
	e := tinyEnv()
	p := New(e, 16, 5)
	rng := rand.New(rand.NewSource(5))
	// With epsilon=1 every action is uniform; two rollouts should differ.
	c1, _, _ := p.Rollout(testConstraint(), rng, 1)
	c2, _, _ := p.Rollout(testConstraint(), rng, 1)
	same := len(c1) == len(c2)
	if same {
		for i := range c1 {
			if c1[i] != c2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("epsilon=1 rollouts should (almost surely) differ")
	}
}

func TestImitationLearningConvergence(t *testing.T) {
	// Supervised imitation of a fixed target episode must drive its
	// log-likelihood up — the GCSL inner loop in miniature.
	e := tinyEnv()
	p := New(e, 24, 6)
	rng := rand.New(rand.NewSource(6))
	c := testConstraint()
	target, _, err := p.Rollout(c, rng, 1) // random target episode
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.01)
	params := p.Params()

	logLik := func() float64 {
		fr, err := p.Forward(c, target)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for t2 := range target {
			total += fr.LogProb(t2, target[t2])
		}
		return total
	}
	before := logLik()
	for iter := 0; iter < 60; iter++ {
		fr, err := p.Forward(c, target)
		if err != nil {
			t.Fatal(err)
		}
		dLogits := make([]*tensor.Tensor, len(target))
		for t2 := range target {
			_, d, _ := nn.SoftmaxCrossEntropy(fr.Logits[t2], []int{target[t2]})
			dLogits[t2] = d
		}
		p.Backward(fr, dLogits, nil)
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
	}
	after := logLik()
	if after <= before+1 {
		t.Fatalf("imitation did not improve log-likelihood: %v -> %v", before, after)
	}
	// Greedy decode should now reproduce the target.
	got, _ := p.Greedy(c)
	if len(got) == len(target) {
		match := 0
		for i := range got {
			if got[i] == target[i] {
				match++
			}
		}
		if float64(match) < 0.9*float64(len(target)) {
			t.Fatalf("greedy reproduces only %d/%d target actions", match, len(target))
		}
	}
}

func TestValueHeadTrains(t *testing.T) {
	e := tinyEnv()
	p := New(e, 16, 7)
	rng := rand.New(rand.NewSource(7))
	c := testConstraint()
	choices, _, _ := p.Rollout(c, rng, 1)
	opt := nn.NewAdam(0.01)
	target := 1.5
	for iter := 0; iter < 80; iter++ {
		fr, _ := p.Forward(c, choices)
		dValues := make([]float64, len(choices))
		for t2 := range choices {
			dValues[t2] = fr.Values[t2] - target // d/dv of 0.5(v-target)^2
		}
		p.Backward(fr, nil, dValues)
		opt.Step(p.Params())
	}
	fr, _ := p.Forward(c, choices)
	for _, v := range fr.Values {
		if math.Abs(v-target) > 0.3 {
			t.Fatalf("value head did not converge to %v: got %v", target, v)
		}
	}
}

func TestNumParamsScalesWithHidden(t *testing.T) {
	e := tinyEnv()
	small := New(e, 8, 1).NumParams()
	big := New(e, 32, 1).NumParams()
	if big <= small {
		t.Fatal("larger hidden size must mean more parameters")
	}
}

func TestCheckpointPreservesGreedyDecisions(t *testing.T) {
	e := tinyEnv()
	p1 := New(e, 16, 77)
	c := testConstraint()
	want, err := p1.Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize p1 into a freshly initialized p2 with different seed.
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, p1.Params()); err != nil {
		t.Fatal(err)
	}
	p2 := New(e, 16, 999)
	if err := nn.ReadParams(&buf, p2.Params()); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decision lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpointed policy diverges at step %d", i)
		}
	}
}

// TestLoadRejectsForgedWidth: Load sizes the policy from lstm.wh, so a
// checkpoint whose lstm.wh is not (4h, h) is refused before anything is
// built from it — (1, 100000) is 400 KB on disk, and taken as h = 100000 it
// would ask for 16·h² weights.
func TestLoadRejectsForgedWidth(t *testing.T) {
	for _, shape := range [][]int{{1, 100000}, {64, 8}, {0, 0}, {64}} {
		path := filepath.Join(t.TempDir(), "policy.bin")
		if err := nn.SaveParams(path, []*nn.Param{nn.NewParam("lstm.wh", tensor.New(shape...))}); err != nil {
			t.Fatal(err)
		}
		if p, err := Load(tinyEnv(), path); err == nil {
			t.Fatalf("lstm.wh %v: loaded a policy of width %d, want an error", shape, p.Hidden)
		}
	}
}

func BenchmarkGreedyDecision(b *testing.B) {
	e := tinyEnv()
	p := New(e, 64, 1)
	c := testConstraint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.GreedyDecision(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyStep is one teacher-forced training step of the policy at
// the curve experiments' hidden size: Forward, the cross-entropy gradients,
// Backward through the heads and the LSTM, and the optimizer step.
func BenchmarkPolicyStep(b *testing.B) {
	e := tinyEnv()
	p := New(e, 64, 1)
	c := testConstraint()
	choices, _, err := p.Rollout(c, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewAdam(0.01)
	params := p.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := p.Forward(c, choices)
		if err != nil {
			b.Fatal(err)
		}
		dLogits := make([]*tensor.Tensor, len(choices))
		for t := range choices {
			_, dLogits[t], _ = nn.SoftmaxCrossEntropy(fr.Logits[t], []int{choices[t]})
		}
		p.Backward(fr, dLogits, nil)
		opt.Step(params)
	}
}
