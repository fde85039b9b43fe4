package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"murmuration/internal/tensor"
	"murmuration/internal/testutil"
)

// batchStatsRef is batchStats as it stood before it walked four channels at
// a time: one channel, one float64 chain, batch then plane.
func batchStatsRef(x *tensor.Tensor, cc int) (mean, variance float32) {
	n, c := x.Shape[0], x.Shape[1]
	plane := x.Shape[2] * x.Shape[3]
	cnt := float64(n * plane)
	var sum float64
	for bi := 0; bi < n; bi++ {
		for _, v := range x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane] {
			sum += float64(v)
		}
	}
	mean = float32(sum / cnt)
	var vsum float64
	for bi := 0; bi < n; bi++ {
		for _, v := range x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane] {
			d := float64(v - mean)
			vsum += d * d
		}
	}
	return mean, float32(vsum / cnt)
}

func TestBatchStatsMatchesSingleChannelLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 3} {
		for _, c := range []int{1, 3, 4, 5, 7} {
			x := randT(rng, n, c, 5, 7)
			for c0 := 0; c0 < c; c0 += 4 {
				checkBatchStats(t, fmt.Sprintf("batch %d, %d channels", n, c), x, c0, min(4, c-c0))
			}
		}
	}
}

// checkBatchStats holds batchStats over channels [c0, c0+k) of x — the vector
// kernel for the whole groups of four, the portable loop for the rest — to the
// single-channel loop, bit for bit; a NaN statistic matches any NaN.
func checkBatchStats(tb testing.TB, name string, x *tensor.Tensor, c0, k int) {
	tb.Helper()
	means, variances := batchStats(x, c0, k)
	var wantMean, wantVar [statsWidth]float32
	for j := 0; j < k; j++ {
		wantMean[j], wantVar[j] = batchStatsRef(x, c0+j)
	}
	sameValues(tb, fmt.Sprintf("%s, means of channels %d–%d", name, c0, c0+k-1), means[:k], wantMean[:k])
	sameValues(tb, fmt.Sprintf("%s, variances of channels %d–%d", name, c0, c0+k-1), variances[:k], wantVar[:k])
}

// guardedT is an (n,c,h,w) tensor of values in [-1, 1), about one in `every`
// a special (0: none), whose last element is the last before an inaccessible
// page and whose first follows canary NaNs.
func guardedT(tb testing.TB, rng *rand.Rand, every, n, c, h, w int) *tensor.Tensor {
	size := n * c * h * w
	buf := testutil.GuardedFloats(tb, canaries+size)
	for i := range buf {
		buf[i] = canary
	}
	x := buf[canaries:]
	for i := range x {
		x[i] = rng.Float32()*2 - 1
		if every > 0 && rng.Intn(every) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
	return tensor.FromSlice(x, n, c, h, w)
}

// TestBatchStatsKernelMatchesPortable walks the statistics kernel over planes
// of 1…70 elements (no block, whole blocks, every tail), channel counts 1…37
// (one to four groups in flight, spare channels for the portable loop),
// batches 1…8, from every group start a worker's chunk can have.
func TestBatchStatsKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	planes := [][2]int{{1, 1}, {1, 7}, {2, 4}, {3, 3}, {5, 3}, {4, 4}, {1, 17}, {5, 5}, {6, 6}, {7, 9}, {10, 7}}
	for _, every := range []int{0, 11} {
		for _, pl := range planes {
			for _, c := range []int{1, 3, 4, 6, 8, 12, 16, 18, 36, 37} {
				for _, n := range []int{1, 2, 3, 8} {
					x := guardedT(t, rng, every, n, c, pl[0], pl[1])
					name := fmt.Sprintf("%dx%dx%dx%d specials 1/%d", n, c, pl[0], pl[1], every)
					for _, start := range []int{0, 1, c / 2} {
						for c0 := start; c0 < c; c0 += statsWidth {
							checkBatchStats(t, name, x, c0, min(statsWidth, c-c0))
						}
					}
				}
			}
		}
	}
}

// FuzzBatchStatsMatchPortable draws a shape and raw bit patterns — every NaN
// payload, denormal and infinity — and holds the statistics kernel and the
// scaling kernel to the plain loops.
func FuzzBatchStatsMatchPortable(f *testing.F) {
	f.Add([]byte{3, 16, 25, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0xc0, 0x7f})
	f.Add([]byte{1, 36, 9, 0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00, 0x00, 0x80})
	f.Add([]byte{8, 5, 70, 0x00, 0x00, 0x80, 0xff, 0x00, 0x00, 0x00, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, c, plane := 1+int(data[0])%8, 1+int(data[1])%37, 1+int(data[2])%70
		x := guardedT(t, rand.New(rand.NewSource(1)), 0, n, c, 1, plane)
		bits := data[3:]
		for i := range x.Data {
			var u uint32
			for sh := 0; sh < 32; sh += 8 {
				u |= uint32(bits[(4*i+sh/8)%len(bits)]) << sh
			}
			x.Data[i] = math.Float32frombits(u)
		}
		for c0 := 0; c0 < c; c0 += statsWidth {
			checkBatchStats(t, "fuzz", x, c0, min(statsWidth, c-c0))
		}
		checkScale(t, "fuzz", x.Data[:plane], x.Data[len(x.Data)-1])
	})
}

// checkScale holds ScaleChannelsInPlace's vector pass, finished by the plain
// loop, to the plain loop on a copy of row that ends at a guard page.
func checkScale(tb testing.TB, name string, row []float32, g float32) {
	tb.Helper()
	buf := testutil.GuardedFloats(tb, canaries+len(row))
	for i := range buf {
		buf[i] = canary
	}
	got := buf[canaries:]
	copy(got, row)
	done := scaleVec(got, g)
	if tensor.HasAVX2() && done != len(row)&^7 {
		tb.Fatalf("%s: the vector pass scaled %d of %d elements", name, done, len(row))
	}
	want := append([]float32(nil), row...)
	for i := range want {
		want[i] *= g
		if i >= done {
			got[i] *= g
		}
	}
	sameValues(tb, name, got, want)
	for i, v := range buf[:canaries] {
		if math.Float32bits(v) != math.Float32bits(canary) {
			tb.Fatalf("%s: wrote %v %d elements before the row", name, v, canaries-i)
		}
	}
}

func TestScaleChannelsMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for n := 1; n <= 70; n++ {
		for _, every := range []int{0, 6} {
			row := guardedT(t, rng, every, 1, 1, 1, n).Data
			for _, g := range []float32{rng.Float32(), 0, float32(math.Inf(1)), float32(math.NaN())} {
				checkScale(t, fmt.Sprintf("n=%d gate %v specials 1/%d", n, g, every), row, g)
			}
		}
	}
	// The layer itself against the training-mode op it stands in for.
	x, s := randT(rng, 3, 5, 3, 7), randT(rng, 3, 5)
	want := x.Clone()
	for r, g := range s.Data {
		for i := 0; i < 21; i++ {
			want.Data[r*21+i] *= g
		}
	}
	ScaleChannelsInPlace(x, s)
	sameValues(t, "ScaleChannelsInPlace", x.Data, want.Data)
}

var (
	canary   = math.Float32frombits(0x7fc0babe)
	specials = []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, -3, 3, // −3 and 3 are relu6's corners after the +3
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
	}
)

const canaries = 9 // more than one register wide

// sameValues fails at the first element whose bits differ; a NaN matches any
// NaN (which payload survives NaN·NaN is the compiler's choice of operand
// order, not part of DESIGN.md §4.6's contract).
func sameValues(tb testing.TB, name string, got, want []float32) {
	tb.Helper()
	for i := range want {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			tb.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// checkBNApply runs the vector apply pass and the portable one over copies of
// row. The vector copy sits between canaries and ends at the last element
// before an inaccessible page, so a write or a read past it is caught.
func checkBNApply(tb testing.TB, name string, row []float32, mean, invStd, g, b float32) {
	tb.Helper()
	for _, hswish := range []bool{false, true} {
		buf := testutil.GuardedFloats(tb, canaries+len(row))
		for i := range buf {
			buf[i] = canary
		}
		got := buf[canaries:]
		copy(got, row)
		done := bnApplyVec(got, mean, invStd, g, b, hswish)
		if tensor.HasAVX2() && done != len(row)&^7 {
			tb.Fatalf("%s: the vector pass normalized %d of %d elements", name, done, len(row))
		}
		bnApply(got[done:], mean, invStd, g, b, hswish)
		want := append([]float32(nil), row...)
		bnApply(want, mean, invStd, g, b, hswish)
		sameValues(tb, fmt.Sprintf("%s hswish=%v", name, hswish), got, want)
		for i, v := range buf[:canaries] {
			if math.Float32bits(v) != math.Float32bits(canary) {
				tb.Fatalf("%s hswish=%v: wrote %v %d elements before the row", name, hswish, v, canaries-i)
			}
		}
	}
}

func TestBNApplyMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{1, 4, 7, 8, 9, 25, 100, 1023, 1025, 1600} {
		for _, every := range []int{0, 6} {
			row := make([]float32, n)
			for i := range row {
				row[i] = rng.Float32()*12 - 6
				if every > 0 && rng.Intn(every) == 0 {
					row[i] = specials[rng.Intn(len(specials))]
				}
			}
			name := fmt.Sprintf("n=%d specials 1/%d", n, every)
			checkBNApply(t, name, row, rng.Float32(), 1+rng.Float32(), rng.Float32()*2-1, rng.Float32()*2-1)
			// The statistics of a channel that held a NaN, an infinity, or
			// nothing but one value (variance 0, invStd = 1/sqrt(eps)).
			checkBNApply(t, name+" NaN mean", row, float32(math.NaN()), float32(math.NaN()), 1, 0)
			checkBNApply(t, name+" Inf mean", row, float32(math.Inf(1)), 0, -1, 0.5)
			checkBNApply(t, name+" identity", row, 0, 1, 1, 0)
			checkBNApply(t, name+" constant channel", row, row[0], 316.22778, 1, float32(math.Copysign(0, -1)))
		}
	}
}

// TestBatchNormInPlaceCarriesSpecialValues holds the whole in-place layer —
// four-channel statistics, vector apply pass, portable tails, one worker or
// four — to the single-channel statistics and the plain arithmetic, on
// activations strewn with NaNs, infinities, signed zeros and denormals.
func TestBatchNormInPlaceCarriesSpecialValues(t *testing.T) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	rng := rand.New(rand.NewSource(53))
	for _, workers := range []int{1, 4} {
		tensor.SetParallelism(workers)
		for _, sh := range [][4]int{{1, 1, 1, 1}, {1, 3, 5, 5}, {3, 5, 3, 3}, {1, 7, 10, 10}, {3, 70, 5, 7}} {
			x := randT(rng, sh[0], sh[1], sh[2], sh[3])
			plane := sh[2] * sh[3]
			// Specials in every second channel only, so that finite statistics
			// are exercised beside poisoned ones.
			for i := range x.Data {
				if i/plane%2 == 1 && rng.Intn(9) == 0 {
					x.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			gamma, beta := randT(rng, sh[1]+2), randT(rng, sh[1]+2)
			for _, hswish := range []bool{false, true} {
				want := x.Clone()
				for cc := 0; cc < sh[1]; cc++ {
					mean, variance := batchStatsRef(x, cc)
					invStd := float32(1 / math.Sqrt(float64(variance+1e-5)))
					for bi := 0; bi < sh[0]; bi++ {
						row := want.Data[(bi*sh[1]+cc)*plane:][:plane]
						for i, v := range row {
							v = (v-mean)*invStd*gamma.Data[cc] + beta.Data[cc]
							if hswish {
								v = v * relu6(v+3) / 6
							}
							row[i] = v
						}
					}
				}
				got := x.Clone()
				BatchNormInPlace(got, gamma, beta, 1e-5, hswish)
				sameValues(t, fmt.Sprintf("workers %d shape %v hswish %v", workers, sh, hswish), got.Data, want.Data)
			}
		}
	}
}
