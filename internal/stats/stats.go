// Package stats provides the small statistical primitives used across
// Murmuration: summary statistics with confidence intervals, exponential
// moving averages, online linear regression (the monitoring-data predictor
// of §5 of the paper), and reservoir sampling for bounded trace capture.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return sortedPercentile(cp, p)
}

// sortedPercentile is Percentile of cp, which is in ascending order.
func sortedPercentile(cp []float64, p float64) float64 {
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// CI95 returns the half-width of the 95% confidence interval of the mean of
// xs under a normal approximation (1.96 · s/√n). Zero for n < 2.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}

// EMA is an exponential moving average with smoothing factor alpha in (0, 1].
// The zero value is not usable; construct with NewEMA.
type EMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEMA returns an EMA with the given smoothing factor. alpha is clamped to
// (0, 1].
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 {
		alpha = 1e-3
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EMA{alpha: alpha}
}

// Add folds x into the average and returns the updated value.
func (e *EMA) Add(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EMA) Value() float64 { return e.value }

// Primed reports whether at least one sample has been added.
func (e *EMA) Primed() bool { return e.primed }

// ErrInsufficientData is returned by LinReg.Fit when fewer than two distinct
// x values have been observed.
var ErrInsufficientData = errors.New("stats: insufficient data for regression")

// LinReg is a simple online least-squares linear regression y = a + b·x over
// a sliding window. It backs the Monitoring-data Predictor (paper §5), which
// forecasts short-term bandwidth/delay changes.
type LinReg struct {
	window int
	xs, ys []float64
}

// NewLinReg returns a regression over a sliding window of the given size
// (minimum 2).
func NewLinReg(window int) *LinReg {
	if window < 2 {
		window = 2
	}
	return &LinReg{window: window}
}

// Observe appends an (x, y) pair, evicting the oldest when the window is full.
func (l *LinReg) Observe(x, y float64) {
	l.xs = append(l.xs, x)
	l.ys = append(l.ys, y)
	if len(l.xs) > l.window {
		l.xs = l.xs[1:]
		l.ys = l.ys[1:]
	}
}

// N returns the number of points currently in the window.
func (l *LinReg) N() int { return len(l.xs) }

// Fit returns the intercept a and slope b of the least-squares line.
func (l *LinReg) Fit() (a, b float64, err error) {
	n := float64(len(l.xs))
	if n < 2 {
		return 0, 0, ErrInsufficientData
	}
	mx := Mean(l.xs)
	my := Mean(l.ys)
	var sxx, sxy float64
	for i := range l.xs {
		dx := l.xs[i] - mx
		sxx += dx * dx
		sxy += dx * (l.ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, ErrInsufficientData
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// Predict extrapolates the fitted line to x. If the fit is degenerate it
// falls back to the mean of the observed y values.
func (l *LinReg) Predict(x float64) float64 {
	a, b, err := l.Fit()
	if err != nil {
		return Mean(l.ys)
	}
	return a + b*x
}

// Reservoir keeps a uniform random sample of up to k items from a stream.
type Reservoir[T any] struct {
	k     int
	n     int
	items []T
	rng   *rand.Rand
}

// NewReservoir returns a reservoir of capacity k seeded deterministically.
func NewReservoir[T any](k int, seed int64) *Reservoir[T] {
	if k < 1 {
		k = 1
	}
	return &Reservoir[T]{k: k, rng: rand.New(rand.NewSource(seed))}
}

// Add offers an item to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.n++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Intn(r.n); j < r.k {
		r.items[j] = item
	}
}

// Items returns the current sample (shared backing array; do not mutate).
func (r *Reservoir[T]) Items() []T { return r.items }

// Seen returns how many items have been offered in total.
func (r *Reservoir[T]) Seen() int { return r.n }

// Window is a fixed-capacity sliding window of observations supporting
// quantile queries — the primitive behind P95-derived hedge delays (Dean &
// Barroso's tail-tolerance playbook: hedge after the 95th-percentile
// expected latency). Not safe for concurrent use; callers guard it.
type Window struct {
	cap  int
	vals []float64
	next int
	full bool
	// sorted is Quantile's scratch: the values are sorted there, not in a
	// copy per query.
	sorted []float64
}

// NewWindow returns a window keeping the last cap observations (min 1).
func NewWindow(cap int) *Window {
	if cap < 1 {
		cap = 1
	}
	return &Window{cap: cap, vals: make([]float64, 0, cap)}
}

// Add records one observation, evicting the oldest at capacity.
func (w *Window) Add(v float64) {
	if len(w.vals) < w.cap {
		w.vals = append(w.vals, v)
		return
	}
	w.full = true
	w.vals[w.next] = v
	w.next = (w.next + 1) % w.cap
}

// Len returns the number of retained observations.
func (w *Window) Len() int { return len(w.vals) }

// Quantile returns the p-th percentile (0 ≤ p ≤ 100) of the retained
// observations, or 0 when the window is empty.
func (w *Window) Quantile(p float64) float64 {
	if len(w.vals) == 0 {
		return 0
	}
	w.sorted = append(w.sorted[:0], w.vals...)
	sort.Float64s(w.sorted)
	return sortedPercentile(w.sorted, p)
}
