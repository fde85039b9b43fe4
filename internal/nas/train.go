package nas

import (
	"fmt"
	"math/rand"

	"murmuration/internal/dataset"
	"murmuration/internal/nn"
	"murmuration/internal/supernet"
)

// TrainOptions configures one-shot supernet training.
type TrainOptions struct {
	Steps     int
	BatchSize int
	LR        float64
	Momentum  float64
	// RandomSubmodels is the number of random submodels per sandwich step
	// (in addition to max and min). The OFA-style sandwich rule uses 2.
	RandomSubmodels int
	// DistillWeight blends the KD loss (against the max submodel's soft
	// labels) with the hard-label CE loss for the smaller submodels.
	DistillWeight float64
	// WarmupSteps trains only the max config before opening the space
	// (progressive shrinking phase 0).
	WarmupSteps int
	Seed        int64
	// Progress, if non-nil, receives (step, trainLoss) after each step.
	Progress func(step int, loss float64)
}

// DefaultTrainOptions returns settings that converge on the tiny synthetic
// task in a few hundred steps.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Steps:           300,
		BatchSize:       16,
		LR:              0.05,
		Momentum:        0.9,
		RandomSubmodels: 2,
		DistillWeight:   0.5,
		WarmupSteps:     50,
		Seed:            1,
	}
}

// Train runs one-shot NAS training with the sandwich rule + in-place
// distillation (paper §4.1, following Once-for-All [1]): every step trains
// the max submodel on hard labels, then the min submodel and K random
// submodels on a blend of hard labels and the max submodel's soft labels.
// Spatial partitioning and quantization settings are sampled too, which is
// what makes the resulting supernet partition-ready.
func Train(s *supernet.Supernet, train *dataset.Dataset, opts TrainOptions) error {
	if train.Len() == 0 {
		return fmt.Errorf("nas: empty training set")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	opt := nn.NewSGD(opts.LR, opts.Momentum, 1e-5)
	params := s.Params()
	a := s.Arch

	for step := 0; step < opts.Steps; step++ {
		x, labels := train.RandomBatch(opts.BatchSize, rng)

		// Max submodel: hard-label CE; its probabilities teach the others.
		maxCfg := a.MaxConfig()
		logits, caches, err := s.Forward(x, maxCfg, true)
		if err != nil {
			return err
		}
		loss, dlogits, probs := nn.SoftmaxCrossEntropy(logits, labels)
		if err := s.Backward(dlogits, caches); err != nil {
			return err
		}

		if step >= opts.WarmupSteps {
			cfgs := []*supernet.Config{a.MinConfig()}
			for i := 0; i < opts.RandomSubmodels; i++ {
				cfgs = append(cfgs, a.RandomConfig(rng))
			}
			for _, cfg := range cfgs {
				lg, cc, err := s.Forward(x, cfg, true)
				if err != nil {
					return err
				}
				_, dce, _ := nn.SoftmaxCrossEntropy(lg, labels)
				_, dkd := nn.KLDivSoft(lg, probs)
				w := float32(opts.DistillWeight)
				d := dce.Scale(1 - w).Add(dkd.Scale(w))
				if err := s.Backward(d, cc); err != nil {
					return err
				}
			}
		}

		nn.ClipGradNorm(params, 5)
		opt.Step(params)
		if opts.Progress != nil {
			opts.Progress(step, loss)
		}
	}
	return nil
}

// Evaluate measures top-1 accuracy (%) of a submodel on a dataset.
func Evaluate(s *supernet.Supernet, cfg *supernet.Config, ds *dataset.Dataset) (float64, error) {
	x, labels := ds.All()
	logits, _, err := s.Forward(x, cfg, false)
	if err != nil {
		return 0, err
	}
	return nn.Accuracy(logits, labels) * 100, nil
}

// CollectSamples measures the accuracy of n random submodels (plus max and
// min) for fitting an MLP predictor.
func CollectSamples(s *supernet.Supernet, ds *dataset.Dataset, n int, seed int64) ([]Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := []*supernet.Config{s.Arch.MaxConfig(), s.Arch.MinConfig()}
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, s.Arch.RandomConfig(rng))
	}
	var out []Sample
	for _, cfg := range cfgs {
		acc, err := Evaluate(s, cfg, ds)
		if err != nil {
			return nil, err
		}
		out = append(out, Sample{Config: cfg, Accuracy: acc})
	}
	return out, nil
}
