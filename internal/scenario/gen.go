package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/zoo"
)

// ArrivalProcess synthesizes request arrival offsets over a window. All
// randomness must come from the supplied rng so the same seed reproduces the
// same arrivals bit for bit.
type ArrivalProcess interface {
	// Arrivals returns strictly increasing offsets in [0, d).
	Arrivals(d time.Duration, rng *rand.Rand) []time.Duration
}

// Poisson is the open-loop baseline: exponentially distributed interarrival
// gaps at a constant mean rate (requests per second).
type Poisson struct {
	Rate float64
}

// Arrivals implements ArrivalProcess.
func (p Poisson) Arrivals(d time.Duration, rng *rand.Rand) []time.Duration {
	if p.Rate <= 0 {
		return nil
	}
	var out []time.Duration
	t := time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
	for t < d {
		out = append(out, t)
		t += time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
	}
	return out
}

// Diurnal is a sinusoidal day/night cycle: a non-homogeneous Poisson process
// whose instantaneous rate is Base + Amplitude·sin(2πt/Period + Phase),
// clamped at zero. Compressing Period turns a 24-hour cycle into a
// seconds-long test scenario.
type Diurnal struct {
	Base, Amplitude float64 // requests per second
	Period          time.Duration
	Phase           float64 // radians
}

func (p Diurnal) rate(t time.Duration) float64 {
	r := p.Base + p.Amplitude*math.Sin(2*math.Pi*t.Seconds()/p.Period.Seconds()+p.Phase)
	if r < 0 {
		return 0
	}
	return r
}

// Arrivals implements ArrivalProcess by thinning against the peak rate.
func (p Diurnal) Arrivals(d time.Duration, rng *rand.Rand) []time.Duration {
	if p.Period <= 0 || p.Base+math.Abs(p.Amplitude) <= 0 {
		return nil
	}
	return thin(d, p.Base+math.Abs(p.Amplitude), p.rate, rng)
}

// Burst is one flash-crowd window: for Duration starting At, the base rate
// is multiplied by Multiplier.
type Burst struct {
	At         time.Duration
	Duration   time.Duration
	Multiplier float64
}

// FlashCrowd is a piecewise-constant process: a steady Base rate with
// multiplicative bursts — the "everyone opens the app at kickoff" shape that
// exercises admission control and shedding.
type FlashCrowd struct {
	Base   float64 // requests per second
	Bursts []Burst
}

func (p FlashCrowd) rate(t time.Duration) float64 {
	r := p.Base
	for _, b := range p.Bursts {
		if t >= b.At && t < b.At+b.Duration && b.Multiplier > 0 {
			r = p.Base * b.Multiplier
		}
	}
	return r
}

// Arrivals implements ArrivalProcess by thinning against the tallest burst.
func (p FlashCrowd) Arrivals(d time.Duration, rng *rand.Rand) []time.Duration {
	peak := p.Base
	for _, b := range p.Bursts {
		if r := p.Base * b.Multiplier; r > peak {
			peak = r
		}
	}
	if peak <= 0 {
		return nil
	}
	return thin(d, peak, p.rate, rng)
}

// Pareto draws heavy-tailed interarrival gaps: long quiet stretches broken
// by dense clumps, the self-similar shape real request streams show. Alpha
// is the tail exponent (must be > 1 for a finite mean; 1.5 is the classic
// heavy-tail choice); Rate is the long-run mean in requests per second.
type Pareto struct {
	Rate  float64
	Alpha float64
}

// Arrivals implements ArrivalProcess.
func (p Pareto) Arrivals(d time.Duration, rng *rand.Rand) []time.Duration {
	alpha := p.Alpha
	if alpha <= 1 {
		alpha = 1.5
	}
	if p.Rate <= 0 {
		return nil
	}
	// Scale xm so the Pareto mean xm·α/(α−1) equals the target mean gap.
	mean := 1 / p.Rate
	xm := mean * (alpha - 1) / alpha
	var out []time.Duration
	var t time.Duration
	for {
		u := rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap := xm / math.Pow(u, 1/alpha)
		t += time.Duration(gap * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}

// Superpose merges several processes into one stream (e.g. a diurnal base
// plus a Pareto tail).
type Superpose []ArrivalProcess

// Arrivals implements ArrivalProcess.
func (s Superpose) Arrivals(d time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	for _, p := range s {
		out = append(out, p.Arrivals(d, rng)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// thin samples a non-homogeneous Poisson process with instantaneous rate
// rate(t) bounded by peak, via Lewis–Shedler thinning.
func thin(d time.Duration, peak float64, rate func(time.Duration) float64, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / peak * float64(time.Second))
		if t >= d {
			return out
		}
		if rng.Float64()*peak < rate(t) {
			out = append(out, t)
		}
	}
}

// ClassShare is one entry of a request mix: an SLO drawn with probability
// proportional to Weight.
type ClassShare struct {
	SLOType  env.SLOType
	SLOValue float64
	Weight   float64
}

// Mix describes what each arrival asks for: its SLO class, its input
// resolution, and its zoo-model choice. Weights need not sum to one.
type Mix struct {
	Classes []ClassShare
	// Resolutions are the candidate square input edges;
	// ResolutionWeights may be nil for a uniform draw.
	Resolutions       []int
	ResolutionWeights []float64
	// Models are candidate model names; ModelWeights may be nil for a
	// uniform draw. ZipfWeights gives the heavy-tailed popularity real
	// multi-tenant serving shows (a few hot models, a long cold tail).
	Models       []string
	ModelWeights []float64
}

// DefaultMix is the matrix's standard request blend: mostly latency-SLO
// traffic, a quality-bound slice, and a best-effort tail, over three input
// resolutions and the zoo's models under Zipf popularity.
func DefaultMix() Mix {
	var models []string
	for _, m := range zoo.All() {
		models = append(models, m.Name)
	}
	return Mix{
		Classes: []ClassShare{
			{SLOType: env.LatencySLO, SLOValue: 250, Weight: 0.5},
			{SLOType: env.AccuracySLO, SLOValue: 75, Weight: 0.3},
			{SLOType: env.LatencySLO, SLOValue: 0, Weight: 0.2}, // best-effort
		},
		Resolutions:  []int{32, 28, 24},
		Models:       models,
		ModelWeights: ZipfWeights(len(models), 1.1),
	}
}

// ZipfWeights returns n weights proportional to 1/rank^s — the heavy-tailed
// popularity curve for model (or tenant) choice.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// weightedPick draws an index with probability proportional to weights
// (uniform when weights is nil or degenerate).
func weightedPick(n int, weights []float64, rng *rand.Rand) int {
	if n <= 0 {
		return 0
	}
	if len(weights) != n {
		return rng.Intn(n)
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(n)
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return n - 1
}

func (m Mix) sample(rng *rand.Rand) (slo ClassShare, resolution int, model string) {
	weights := make([]float64, len(m.Classes))
	for i, c := range m.Classes {
		weights[i] = c.Weight
	}
	slo = m.Classes[weightedPick(len(m.Classes), weights, rng)]
	resolution = m.Resolutions[weightedPick(len(m.Resolutions), m.ResolutionWeights, rng)]
	if len(m.Models) > 0 {
		model = m.Models[weightedPick(len(m.Models), m.ModelWeights, rng)]
	}
	return slo, resolution, model
}

// GenOptions parameterizes Synthesize.
type GenOptions struct {
	Name     string
	Seed     int64
	Duration time.Duration
	Process  ArrivalProcess
	// Mix defaults to DefaultMix when it has no classes.
	Mix Mix
	// Env is an optional environment timeline (device churn, link
	// transitions) merged into the request stream. Build it by hand or with
	// Churn.
	Env []Event
}

// Synthesize builds a trace from an arrival process and a request mix. The
// construction is fully deterministic in Seed: the same options always yield
// the byte-identical trace (rng draws happen in a fixed order — arrivals
// first, then one mix sample per arrival — and the merge sort is stable).
func Synthesize(o GenOptions) (*Trace, error) {
	if o.Process == nil {
		return nil, fmt.Errorf("scenario: GenOptions.Process is required")
	}
	if o.Duration <= 0 {
		return nil, fmt.Errorf("scenario: GenOptions.Duration must be positive")
	}
	mix := o.Mix
	if len(mix.Classes) == 0 {
		mix = DefaultMix()
	}
	if len(mix.Resolutions) == 0 {
		mix.Resolutions = []int{32}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	arrivals := o.Process.Arrivals(o.Duration, rng)
	events := make([]Event, 0, len(arrivals)+len(o.Env))
	for _, at := range arrivals {
		share, res, model := mix.sample(rng)
		events = append(events, Event{
			At: at, Kind: EvRequest,
			SLOType: share.SLOType, SLOValue: share.SLOValue,
			Resolution: res, Model: model,
		})
	}
	for _, e := range o.Env {
		if e.IsRequest() {
			return nil, fmt.Errorf("scenario: GenOptions.Env contains a request event")
		}
		events = append(events, e)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	t := &Trace{Name: o.Name, Seed: o.Seed, Events: events}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ChurnOptions parameterizes Churn, the environment-timeline generator.
type ChurnOptions struct {
	// Devices is how many remote devices the timeline covers.
	Devices int
	// MeanUp is the mean healthy stretch before a device leaves
	// (exponential; 0 disables leave/join churn).
	MeanUp time.Duration
	// Downtime is how long a departed device stays gone before rejoining.
	Downtime time.Duration
	// DegradeEvery is the mean period between link-degrade windows per
	// device (exponential; 0 disables degrade churn).
	DegradeEvery time.Duration
	// DegradeFor is how long a degrade window lasts.
	DegradeFor time.Duration
	// DegradeDelayMs / CalmDelayMs are the one-way delays inside and
	// outside a degrade window.
	DegradeDelayMs, CalmDelayMs float64
	// SlowEvery is the mean period between slow-compute windows per device
	// (exponential; 0 disables); SlowFor is the window length and SlowFactor
	// the compute-latency multiplier inside it (must be > 1 to emit).
	SlowEvery, SlowFor time.Duration
	SlowFactor         float64
	// ComputeErrEvery / ComputeErrFor / ComputeErrRate likewise synthesize
	// compute-error windows, inside which each exec.block call (one fused
	// run of blocks) fails with probability ComputeErrRate (seeded per window
	// from the trace rng).
	ComputeErrEvery, ComputeErrFor time.Duration
	ComputeErrRate                 float64
	// RestartEvery is the mean period between in-place daemon restarts per
	// device (exponential; 0 disables restart churn). A restart is a single
	// event: the replacement process is live immediately, under a new
	// incarnation.
	RestartEvery time.Duration
	// AsymEvery / AsymFor synthesize asymmetric stall windows per device
	// (exponential period; 0 disables): inside a window, frames of at least
	// AsymMinBytes bytes wedge on the bulk direction while small frames
	// pass. AsymMinBytes <= 0 selects DefaultAsymMinBytes.
	AsymEvery, AsymFor time.Duration
	AsymMinBytes       int
}

// Churn synthesizes a seeded environment timeline: per device, exponential
// up-times broken by leave→join pairs, and delay-degrade windows that raise
// the link's one-way delay and later restore it. Merge the result into a
// workload via GenOptions.Env.
func Churn(o ChurnOptions, d time.Duration, rng *rand.Rand) []Event {
	var events []Event
	for dev := 0; dev < o.Devices; dev++ {
		if o.MeanUp > 0 && o.Downtime > 0 {
			t := expAfter(o.MeanUp, rng)
			for t < d {
				events = append(events, Event{At: t, Kind: EvDeviceLeave, Device: dev})
				rejoin := t + o.Downtime
				if rejoin >= d {
					break
				}
				events = append(events, Event{At: rejoin, Kind: EvDeviceJoin, Device: dev})
				t = rejoin + expAfter(o.MeanUp, rng)
			}
		}
		if o.DegradeEvery > 0 && o.DegradeFor > 0 {
			t := expAfter(o.DegradeEvery, rng)
			for t < d {
				events = append(events, Event{At: t, Kind: EvSetDelay, Device: dev, Value: o.DegradeDelayMs})
				clear := t + o.DegradeFor
				if clear >= d {
					clear = d - 1
				}
				events = append(events, Event{At: clear, Kind: EvSetDelay, Device: dev, Value: o.CalmDelayMs})
				t = clear + expAfter(o.DegradeEvery, rng)
			}
		}
		if o.SlowEvery > 0 && o.SlowFor > 0 && o.SlowFactor > 1 {
			t := expAfter(o.SlowEvery, rng)
			for t < d {
				events = append(events, Event{At: t, Kind: EvSlowCompute, Device: dev, Value: o.SlowFactor})
				clear := t + o.SlowFor
				if clear >= d {
					clear = d - 1
				}
				events = append(events, Event{At: clear, Kind: EvSlowCompute, Device: dev, Value: 1})
				t = clear + expAfter(o.SlowEvery, rng)
			}
		}
		if o.RestartEvery > 0 {
			t := expAfter(o.RestartEvery, rng)
			for t < d {
				events = append(events, Event{At: t, Kind: EvRestart, Device: dev})
				t += expAfter(o.RestartEvery, rng)
			}
		}
		if o.AsymEvery > 0 && o.AsymFor > 0 {
			t := expAfter(o.AsymEvery, rng)
			for t < d {
				events = append(events, Event{
					At: t, Kind: EvAsymDegrade, Device: dev,
					Value: o.AsymFor.Seconds() * 1000,
					Seed:  int64(o.AsymMinBytes),
				})
				t = t + o.AsymFor + expAfter(o.AsymEvery, rng)
			}
		}
		if o.ComputeErrEvery > 0 && o.ComputeErrFor > 0 && o.ComputeErrRate > 0 {
			t := expAfter(o.ComputeErrEvery, rng)
			for t < d {
				events = append(events, Event{
					At: t, Kind: EvComputeError, Device: dev,
					Value: o.ComputeErrRate, Seed: rng.Int63(),
				})
				clear := t + o.ComputeErrFor
				if clear >= d {
					clear = d - 1
				}
				events = append(events, Event{At: clear, Kind: EvComputeError, Device: dev})
				t = clear + expAfter(o.ComputeErrEvery, rng)
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

func expAfter(mean time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}
