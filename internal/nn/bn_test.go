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
				k := min(4, c-c0)
				means, variances := batchStats(x, c0, k)
				for j := 0; j < k; j++ {
					mean, variance := batchStatsRef(x, c0+j)
					if math.Float32bits(means[j]) != math.Float32bits(mean) || math.Float32bits(variances[j]) != math.Float32bits(variance) {
						t.Fatalf("batch %d, channel %d of %d: mean %v variance %v, want %v %v", n, c0+j, c, means[j], variances[j], mean, variance)
					}
				}
			}
		}
	}
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
