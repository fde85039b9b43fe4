package supernet

import (
	"math/rand"
	"testing"

	"murmuration/internal/tensor"
)

// TestSubmodelUsesOnlySlicedWeights verifies the weight-sharing contract:
// a submodel's output depends only on the weight slice its config selects.
// Corrupting everything *outside* the slice (extra channels, kernel rims,
// inactive blocks) must not change the submodel's logits.
func TestSubmodelUsesOnlySlicedWeights(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 31)
	rng := rand.New(rand.NewSource(31))
	x := tensor.New(1, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}

	// A strictly-inside-the-space submodel: min depth, min kernel/expand.
	cfg := a.MinConfig()
	want, _, err := s.Forward(x, cfg, false)
	if err != nil {
		t.Fatal(err)
	}

	// Reference output of a large-kernel submodel, captured before the
	// corruption (it must change afterwards — proving the corrupted region
	// is genuinely live for configs that select it).
	big := a.MinConfig()
	for i := range big.Layers {
		big.Layers[i].Kernel = a.MaxKernel()
	}
	bigBefore, _, err := s.Forward(x, big, false)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt weights outside the min submodel's slices: for every block
	// param, overwrite the region beyond the min channel count and beyond
	// the center-cropped kernel.
	for _, p := range s.Params() {
		switch {
		case p.W.Rank() == 4 && p.W.Shape[1] == 1: // depthwise (C,1,K,K)
			maxK := p.W.Shape[2]
			minK := minInt2(a.Kernels)
			off := (maxK - minK) / 2
			for c := 0; c < p.W.Shape[0]; c++ {
				for ky := 0; ky < maxK; ky++ {
					for kx := 0; kx < maxK; kx++ {
						inside := ky >= off && ky < off+minK && kx >= off && kx < off+minK
						if !inside {
							p.W.Set(999, c, 0, ky, kx)
						}
					}
				}
			}
		}
	}
	got, _, err := s.Forward(x, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("logit %d changed after corrupting out-of-slice kernel rims: %v vs %v",
				i, want.Data[i], got.Data[i])
		}
	}

	// Sanity: the corruption must matter for a submodel that *does* use the
	// large kernel.
	bigAfter, _, err := s.Forward(x, big, false)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range bigAfter.Data {
		if bigAfter.Data[i] != bigBefore.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("corrupted kernel rims should change the large-kernel submodel's output")
	}
}

func minInt2(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// TestGradIsolationAcrossSubmodels: training the min submodel must leave
// gradients of out-of-slice weights at zero.
func TestGradIsolationAcrossSubmodels(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 32)
	rng := rand.New(rand.NewSource(32))
	x := tensor.New(2, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	cfg := a.MinConfig()
	logits, caches, err := s.Forward(x, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	d := tensor.New(logits.Shape...)
	d.Fill(0.1)
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
	s.Backward(d, caches)

	for _, p := range s.Params() {
		if p.W.Rank() == 4 && p.W.Shape[1] == 1 { // depthwise
			maxK := p.W.Shape[2]
			minK := minInt2(a.Kernels)
			off := (maxK - minK) / 2
			// Gradient outside the center crop must be exactly zero.
			for c := 0; c < p.W.Shape[0]; c++ {
				for ky := 0; ky < maxK; ky++ {
					for kx := 0; kx < maxK; kx++ {
						inside := ky >= off && ky < off+minK && kx >= off && kx < off+minK
						if !inside && p.Grad().At(c, 0, ky, kx) != 0 {
							t.Fatalf("%s: gradient leaked outside kernel slice at (%d,%d,%d)",
								p.Name, c, ky, kx)
						}
					}
				}
			}
		}
	}
}
