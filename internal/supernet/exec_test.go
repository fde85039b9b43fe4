package supernet

import (
	"math"
	"math/rand"
	"testing"

	"murmuration/internal/tensor"
)

// TestExecComposeMatchesForward verifies that the runtime execution path —
// ExecStem, per-layer TileSplit + ExecBlock (with wire quantization applied
// per tile), ExecHead — reproduces the monolithic Forward exactly. This is
// the invariant that makes distributed execution trustworthy.
func TestExecComposeMatchesForward(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 11)
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(1, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}

	for trial := 0; trial < 5; trial++ {
		cfg := a.RandomConfig(rng)
		want, _, err := s.Forward(x, cfg, false)
		if err != nil {
			t.Fatal(err)
		}

		// Compose the runtime path.
		y := tensor.BilinearResize(x, cfg.Resolution, cfg.Resolution)
		y = s.ExecStem(y)
		for layer := 0; layer < cfg.NumLayers(); layer++ {
			ls := cfg.Layers[layer]
			stage, index, stride, err := a.BlockAt(cfg, layer)
			if err != nil {
				t.Fatal(err)
			}
			h, w := y.Shape[2], y.Shape[3]
			y0s, x0s, ths, tws, err := TileSplit(h, w, ls.Partition, stride)
			if err != nil {
				t.Fatal(err)
			}
			outC := a.Stages[stage].Width
			out := tensor.New(y.Shape[0], outC, h/stride, w/stride)
			for ti := range y0s {
				tile := tensor.CropSpatial(y, y0s[ti], x0s[ti], ths[ti], tws[ti])
				if ls.Quant != tensor.Bits32 {
					tile = tensor.Quantize(tile, ls.Quant).Dequantize()
				}
				res, err := s.ExecBlock(stage, index, tile, ls)
				if err != nil {
					t.Fatal(err)
				}
				tensor.PasteSpatial(out, res, y0s[ti]/stride, x0s[ti]/stride)
			}
			y = out
		}
		got := s.ExecHead(y)

		if !got.SameShape(want) {
			t.Fatalf("trial %d (%s): shape %v vs %v", trial, cfg, got.Shape, want.Shape)
		}
		for i := range want.Data {
			// Not "d > 1e-5": a NaN logit (a poisoned workspace read) must fail.
			if d := math.Abs(float64(got.Data[i] - want.Data[i])); !(d <= 1e-5) {
				t.Fatalf("trial %d (%s): logit %d differs %v vs %v", trial, cfg, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestBlockAtMapping(t *testing.T) {
	a := TinyArch(4)
	cfg := a.MaxConfig() // depths [2,2]
	cases := []struct{ layer, stage, index, stride int }{
		{0, 0, 0, 2},
		{1, 0, 1, 1},
		{2, 1, 0, 2},
		{3, 1, 1, 1},
	}
	for _, c := range cases {
		st, idx, sd, err := a.BlockAt(cfg, c.layer)
		if err != nil {
			t.Fatal(err)
		}
		if st != c.stage || idx != c.index || sd != c.stride {
			t.Fatalf("layer %d: got (%d,%d,%d) want (%d,%d,%d)",
				c.layer, st, idx, sd, c.stage, c.index, c.stride)
		}
	}
	if _, _, _, err := a.BlockAt(cfg, 4); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
	if _, _, _, err := a.BlockAt(cfg, -1); err == nil {
		t.Fatal("negative layer accepted")
	}
}

func TestExecBlockValidation(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 12)
	ls := LayerSetting{Kernel: 3, Expand: 2, Partition: Partition{Gy: 1, Gx: 1}, Quant: tensor.Bits32}
	x := tensor.New(1, 3, 8, 8) // wrong channel count for stage 0 block 0
	if _, err := s.ExecBlock(0, 0, x, ls); err == nil {
		t.Fatal("wrong channel count accepted")
	}
	if _, err := s.ExecBlock(9, 0, tensor.New(1, 8, 8, 8), ls); err == nil {
		t.Fatal("bad stage accepted")
	}
	if _, err := s.ExecBlock(0, 9, tensor.New(1, 8, 8, 8), ls); err == nil {
		t.Fatal("bad block index accepted")
	}
	// Odd tile with stride-2 block.
	if _, err := s.ExecBlock(0, 0, tensor.New(1, 8, 7, 7), ls); err == nil {
		t.Fatal("stride-indivisible tile accepted")
	}
}

func TestTileSplitGeometry(t *testing.T) {
	y0s, x0s, ths, tws, err := TileSplit(16, 16, Partition{Gy: 2, Gx: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(y0s) != 4 {
		t.Fatalf("%d tiles", len(y0s))
	}
	// Tiles must partition the input exactly.
	var area int
	for i := range y0s {
		area += ths[i] * tws[i]
		if y0s[i]%2 != 0 || x0s[i]%2 != 0 {
			t.Fatal("tile origins must be stride-aligned")
		}
	}
	if area != 16*16 {
		t.Fatalf("tiles cover %d pixels, want 256", area)
	}
	// Uneven split: 6 rows into 4 output rows over stride 1, grid 3.
	_, _, ths2, _, err := TileSplit(6, 6, Partition{Gy: 3, Gx: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ths2[0]+ths2[1]+ths2[2] != 6 {
		t.Fatalf("uneven split sums to %d", ths2[0]+ths2[1]+ths2[2])
	}
	// Impossible split errors.
	if _, _, _, _, err := TileSplit(2, 2, Partition{Gy: 4, Gx: 1}, 1); err == nil {
		t.Fatal("oversubscribed grid accepted")
	}
	if _, _, _, _, err := TileSplit(7, 7, Partition{Gy: 1, Gx: 1}, 2); err == nil {
		t.Fatal("stride-indivisible input accepted")
	}
}

// TestExecBlockAllocCeiling pins what one tile costs the allocator on the
// inference path: 13 allocations, the output tensor at three and the rest the
// closures the kernels hand to ParallelByCost. The two hidden maps, the
// depthwise kernel's center crop and the SE vectors are the workspace's (it
// was 29 while those four were fresh tensors). A per-tile copy of a 1×1 or SE
// weight, a BatchNorm output or XHat, an h-swish output, or a role that went
// back to the allocator would add a tensor and fail it. Sharing the kernels
// with the worker team allocates nothing, so the count holds at any
// parallelism.
func TestExecBlockAllocCeiling(t *testing.T) {
	a := DefaultArch()
	s := New(a, 3)
	// Stage 1, block 1: 40→40 channels, stride 1, SE, residual.
	x := randInput(rand.New(rand.NewSource(3)), 1, 40, 20, 20)
	ls := LayerSetting{Kernel: 3, Expand: 3, Partition: Partition{1, 1}, Quant: tensor.Bits32}
	var allocs float64
	unpoisoned(func() {
		allocs = testing.AllocsPerRun(10, func() {
			if _, err := s.ExecBlock(1, 1, x, ls); err != nil {
				t.Fatal(err)
			}
		})
	})
	const ceiling = 14
	if allocs > ceiling {
		t.Fatalf("ExecBlock made %v allocations, ceiling %d", allocs, ceiling)
	}
}
