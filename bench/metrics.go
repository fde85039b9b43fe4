package main

import (
	"fmt"
	"sort"

	"murmuration/internal/stats"
)

// metricDef names one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before -compare (and the
// driver, via BENCHMARK.json) calls it a regression; per-layer metrics carry
// no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is the table every workload reports with tracing off.
// BENCHMARK.json repeats it; TestBenchmarkJSONMatchesCode keeps the two equal.
//
// One bound serves all four workloads, so the noisiest workload sets it. Each
// is the issue's starting value, widened where sets of ten seeds on the 2-vCPU
// sandbox showed a spread (interquartile distance / median) above a third of
// it. The sandbox has calm periods (timing spreads of 1-3 %) and noisy ones
// (the same code at a third of the speed), which is why every timing metric
// sits at the 0.25 cap; BASELINE.md records the spreads. CPU per request is
// per-layer (bench.cpu_ms_per_req): no bound the contract allows holds it on
// a shared host, see README.md.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"slo_attainment", "share", "higher", 0.02},
	{"served_share", "share", "higher", 0.005},
	{"allocs_per_req", "count", "lower", 0.05},
	{"alloc_kb_per_req", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced pass's table, grouped by the module each metric
// observes from outside.
var perLayer = []metricDef{
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.shed_share", Unit: "share", Better: "lower"},
	{Name: "serve.deadline_missed_share", Unit: "share", Better: "lower"},
	{Name: "serve.degraded_share", Unit: "share", Better: "lower"},

	{Name: "runtime.strategy_key_us", Unit: "us", Better: "lower"},
	{Name: "runtime.resolve_hit_us", Unit: "us", Better: "lower"},
	{Name: "runtime.resolve_miss_us", Unit: "us", Better: "lower"},
	{Name: "runtime.decide_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.cache_hit_ratio", Unit: "share", Better: "higher"},

	{Name: "runtime.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.sched_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.remote_tiles_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.local_tiles_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.hedges_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.hedge_wins", Unit: "count", Better: "higher"},
	{Name: "runtime.limiter_cuts", Unit: "count", Better: "lower"},
	{Name: "runtime.failovers", Unit: "count", Better: "lower"},
	{Name: "health.quarantines", Unit: "count", Better: "lower"},

	{Name: "runtime.executor_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.executor_ms_per_req", Unit: "ms", Better: "lower"},

	{Name: "rpcx.calls_per_req", Unit: "count", Better: "lower"},
	{Name: "rpcx.bytes_up_per_req", Unit: "B", Better: "lower"},
	{Name: "rpcx.bytes_down_per_req", Unit: "B", Better: "lower"},
	{Name: "rpcx.ping_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "rpcx.noncompute_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "supernet.stem_ms", Unit: "ms", Better: "lower"},
	{Name: "supernet.blocks_ms", Unit: "ms", Better: "lower"},
	{Name: "supernet.head_ms", Unit: "ms", Better: "lower"},
	{Name: "supernet.forward_allocs", Unit: "count", Better: "lower"},
	{Name: "supernet.forward_kb", Unit: "KB", Better: "lower"},
	{Name: "supernet.predicted_transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "supernet.transfer_model_ratio", Unit: "ratio", Better: "lower"},

	{Name: "tensor.resize_us", Unit: "us", Better: "lower"},
	{Name: "tensor.crop_paste_us", Unit: "us", Better: "lower"},
	{Name: "tensor.quantize_us", Unit: "us", Better: "lower"},
	{Name: "tensor.encode_us", Unit: "us", Better: "lower"},
	{Name: "tensor.decode_us", Unit: "us", Better: "lower"},
	{Name: "tensor.conv1x1_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.dwconv_gflops", Unit: "GFLOP/s", Better: "higher"},

	{Name: "nn.batchnorm_us", Unit: "us", Better: "lower"},

	{Name: "policy.decide_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "env.structured_search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "env.evaluate_us_p50", Unit: "us", Better: "lower"},

	{Name: "bench.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "bench.cpu_util", Unit: "cores", Better: "higher"},
	{Name: "bench.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.failed_share", Unit: "share", Better: "lower"},
	{Name: "bench.watchdog_timeouts", Unit: "count", Better: "lower"},
	{Name: "bench.logit_mismatches", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs a metric table with measured numbers. set panics on a name the
// table does not hold, so a typo cannot silently drop a metric; missing lists
// what was never set.
type report struct {
	defs []metricDef
	vals map[string]value
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, vals: make(map[string]value, len(defs))}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.vals[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes every metric by name with its unit, in table order.
func (r *report) print(workload string) {
	for _, d := range r.defs {
		if v, ok := r.vals[d.Name]; ok {
			fmt.Printf("%-22s %-32s %14.6g %s\n", workload, d.Name, v.Value, v.Unit)
		}
	}
}

// pct is stats.Percentile that reads an empty sample as 0 rather than
// panicking: a phase that served nothing still has to print its metrics.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// tailCandidates are the percentiles a workload's frozen tail is chosen from.
var tailCandidates = []float64{75, 90, 95, 99}

// samplesBeyond is how many of n samples lie above percentile p.
func samplesBeyond(n int, p float64) int { return int(float64(n) * (100 - p) / 100) }

// tailEligible reports whether percentile p of n samples has at least ten
// samples beyond it — the choosing-metrics rule for a reportable tail.
func tailEligible(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// highestEligibleTail returns the highest candidate percentile that n samples
// support, or 0 when even the lowest has fewer than ten samples beyond it.
func highestEligibleTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if tailEligible(n, p) {
			best = p
		}
	}
	return best
}

// worsening returns how much worse cand is than base as a share of base,
// signed so that positive is worse whatever the metric's direction.
func worsening(d metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	rel := (cand - base) / base
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// spreadShare is the interquartile distance of xs as a share of their median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (exclusive
// method), so it matches what the driver computes. Fewer than two values have
// no spread.
func spreadShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := pct(s, 50)
	if med == 0 {
		return 0
	}
	iqr := q(3) - q(1)
	if iqr < 0 {
		iqr = -iqr
	}
	if med < 0 {
		med = -med
	}
	return iqr / med
}
