package nas

import (
	"math/rand"
	"testing"
	"testing/quick"

	"murmuration/internal/dataset"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func TestCalibratedPredictorAnchors(t *testing.T) {
	a := supernet.DefaultArch()
	p := NewCalibratedPredictor(a)
	maxAcc := p.Accuracy(a.MaxConfig())
	minAcc := p.Accuracy(a.MinConfig())
	if maxAcc < 78.0 || maxAcc > 79.0 {
		t.Fatalf("max config accuracy %v, want ≈78.5", maxAcc)
	}
	if minAcc < 71.0 || minAcc > 73.0 {
		t.Fatalf("min config accuracy %v, want ≈72", minAcc)
	}
	if maxAcc <= minAcc {
		t.Fatal("max must beat min")
	}
}

func TestPredictorMonotoneInSettings(t *testing.T) {
	a := supernet.DefaultArch()
	p := NewCalibratedPredictor(a)
	p.JitterAmp = 0 // isolate the deterministic part
	base := a.MaxConfig()
	baseAcc := p.Accuracy(base)

	res := base.Clone()
	res.Resolution = 160
	if p.Accuracy(res) >= baseAcc {
		t.Fatal("lower resolution must lower accuracy")
	}

	q := base.Clone()
	for i := range q.Layers {
		q.Layers[i].Quant = tensor.Bits8
	}
	if p.Accuracy(q) >= baseAcc {
		t.Fatal("8-bit quantization must lower accuracy")
	}

	part := base.Clone()
	for i := range part.Layers {
		part.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
	}
	if p.Accuracy(part) >= baseAcc {
		t.Fatal("spatial partitioning must lower accuracy")
	}

	k := base.Clone()
	for i := range k.Layers {
		k.Layers[i].Kernel = 3
	}
	if p.Accuracy(k) >= baseAcc {
		t.Fatal("smaller kernels must lower accuracy")
	}
}

func TestPredictorDeterministic(t *testing.T) {
	a := supernet.DefaultArch()
	p := NewCalibratedPredictor(a)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		cfg := a.RandomConfig(rng)
		if p.Accuracy(cfg) != p.Accuracy(cfg) {
			t.Fatal("predictor must be deterministic")
		}
	}
}

// Property: all random configs land within the calibrated accuracy band.
func TestPredictorBoundedProperty(t *testing.T) {
	a := supernet.DefaultArch()
	p := NewCalibratedPredictor(a)
	f := func(seed int64) bool {
		cfg := a.RandomConfig(rand.New(rand.NewSource(seed)))
		acc := p.Accuracy(cfg)
		return acc > 70 && acc < 79.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetGeneration(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Classes: 4, PerClass: 10, Size: 16, NoiseStd: 0.1, Seed: 1})
	if ds.Len() != 40 {
		t.Fatalf("dataset size %d", ds.Len())
	}
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] != 10 {
			t.Fatalf("class %d has %d samples", c, counts[c])
		}
	}
	// Deterministic for a fixed seed.
	ds2 := dataset.Generate(dataset.Config{Classes: 4, PerClass: 10, Size: 16, NoiseStd: 0.1, Seed: 1})
	for i := range ds.Images[0].Data {
		if ds.Images[0].Data[i] != ds2.Images[0].Data[i] {
			t.Fatal("generation must be deterministic")
		}
	}
	// Values bounded.
	for _, v := range ds.Images[0].Data {
		if v < -1 || v > 1 {
			t.Fatalf("pixel %v out of range", v)
		}
	}
}

func TestDatasetSplitAndBatch(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Classes: 2, PerClass: 10, Size: 8, Seed: 2})
	tr, val := ds.Split(0.8)
	if tr.Len()+val.Len() != ds.Len() {
		t.Fatal("split lost samples")
	}
	if tr.Len() != 16 {
		t.Fatalf("train size %d", tr.Len())
	}
	x, labels := tr.Batch([]int{0, 3})
	if x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 8 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if labels[0] != tr.Labels[0] || labels[1] != tr.Labels[3] {
		t.Fatal("batch labels wrong")
	}
}

func TestOneShotTrainingImprovesAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	a := supernet.TinyArch(4)
	s := supernet.New(a, 42)
	ds := dataset.Generate(dataset.Config{Classes: 4, PerClass: 30, Size: 32, NoiseStd: 0.15, Seed: 42})
	train, val := ds.Split(0.8)

	before, err := Evaluate(s, a.MaxConfig(), val)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Steps = 120
	opts.WarmupSteps = 40
	opts.BatchSize = 12
	if err := Train(s, train, opts); err != nil {
		t.Fatal(err)
	}
	afterMax, _ := Evaluate(s, a.MaxConfig(), val)
	afterMin, _ := Evaluate(s, a.MinConfig(), val)
	if afterMax <= before+5 {
		t.Fatalf("training did not improve max submodel: %v%% -> %v%%", before, afterMax)
	}
	// The min submodel shares weights and must also have learned something
	// beyond chance (25%).
	if afterMin < 35 {
		t.Fatalf("min submodel accuracy %v%% still at chance", afterMin)
	}
}

func TestTrainRejectsEmptyDataset(t *testing.T) {
	a := supernet.TinyArch(2)
	s := supernet.New(a, 1)
	if err := Train(s, &dataset.Dataset{Classes: 2, Size: 32}, DefaultTrainOptions()); err == nil {
		t.Fatal("empty dataset should error")
	}
}
