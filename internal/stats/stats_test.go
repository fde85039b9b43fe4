package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance of this classic set is 32/7.
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance(single) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := []float64{1, 2, 3, 4}
	big := make([]float64, 400)
	for i := range big {
		big[i] = float64(i%4) + 1
	}
	if CI95(big) >= CI95(small) {
		t.Fatalf("CI95 should shrink with n: big=%v small=%v", CI95(big), CI95(small))
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Primed() {
		t.Fatal("new EMA should not be primed")
	}
	e.Add(10)
	if !almostEq(e.Value(), 10, 1e-12) {
		t.Fatalf("first sample should set value, got %v", e.Value())
	}
	e.Add(20)
	if !almostEq(e.Value(), 15, 1e-12) {
		t.Fatalf("EMA = %v, want 15", e.Value())
	}
}

func TestEMAClampsAlpha(t *testing.T) {
	e := NewEMA(5)
	e.Add(1)
	e.Add(3)
	if !almostEq(e.Value(), 3, 1e-12) {
		t.Fatalf("alpha clamped to 1 should track last sample, got %v", e.Value())
	}
}

func TestLinRegExactLine(t *testing.T) {
	l := NewLinReg(16)
	for i := 0; i < 10; i++ {
		x := float64(i)
		l.Observe(x, 3+2*x)
	}
	a, b, err := l.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 3, 1e-9) || !almostEq(b, 2, 1e-9) {
		t.Fatalf("fit = (%v, %v), want (3, 2)", a, b)
	}
	if got := l.Predict(20); !almostEq(got, 43, 1e-9) {
		t.Fatalf("Predict(20) = %v, want 43", got)
	}
}

func TestLinRegWindowEviction(t *testing.T) {
	l := NewLinReg(3)
	// Old outlier points must be forgotten once the window slides past them.
	l.Observe(0, 1000)
	for i := 1; i <= 3; i++ {
		l.Observe(float64(i), float64(i))
	}
	if l.N() != 3 {
		t.Fatalf("window size = %d, want 3", l.N())
	}
	if got := l.Predict(4); !almostEq(got, 4, 1e-9) {
		t.Fatalf("Predict(4) = %v, want 4 (outlier evicted)", got)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	l := NewLinReg(8)
	l.Observe(5, 1)
	l.Observe(5, 3)
	if _, _, err := l.Fit(); err == nil {
		t.Fatal("expected error for constant x")
	}
	// Predict falls back to mean of y.
	if got := l.Predict(9); !almostEq(got, 2, 1e-12) {
		t.Fatalf("degenerate Predict = %v, want mean 2", got)
	}
}

func TestReservoirBounded(t *testing.T) {
	r := NewReservoir[int](10, 1)
	for i := 0; i < 1000; i++ {
		r.Add(i)
	}
	if len(r.Items()) != 10 {
		t.Fatalf("reservoir size = %d, want 10", len(r.Items()))
	}
	if r.Seen() != 1000 {
		t.Fatalf("seen = %d, want 1000", r.Seen())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of 100 items should land in a k=50 reservoir about half the time.
	counts := make([]int, 100)
	for seed := int64(0); seed < 200; seed++ {
		r := NewReservoir[int](50, seed)
		for i := 0; i < 100; i++ {
			r.Add(i)
		}
		for _, it := range r.Items() {
			counts[it]++
		}
	}
	for i, c := range counts {
		if c < 60 || c > 140 { // expected 100, generous bounds
			t.Fatalf("item %d selected %d/200 times; reservoir not uniform", i, c)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi && lo >= Min(xs) && hi <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: EMA output stays within the range of its inputs.
func TestEMABoundedProperty(t *testing.T) {
	f := func(raw []float64, alpha float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewEMA(math.Mod(math.Abs(alpha), 1) + 1e-6)
		for _, x := range xs {
			e.Add(x)
		}
		return e.Value() >= Min(xs)-1e-6 && e.Value() <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowQuantileIsPercentile: a window's quantile is Percentile of what it
// holds, bit for bit, and a query allocates nothing once the window is full.
func TestWindowQuantileIsPercentile(t *testing.T) {
	w := NewWindow(128)
	var held []float64
	for i := 0; i < 300; i++ {
		v := math.Mod(float64(i)*7.31, 5.0) + float64(i%13)*1e-3
		w.Add(v)
		if held = append(held, v); len(held) > 128 {
			held = held[1:]
		}
		for _, p := range []float64{0, 50, 95, 99.5, 100} {
			if got, want := w.Quantile(p), Percentile(held, p); got != want {
				t.Fatalf("after %d values: Quantile(%v) = %v, Percentile = %v", i+1, p, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { w.Quantile(95) }); allocs != 0 {
		t.Fatalf("Quantile allocates %v times a query", allocs)
	}
}
