package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPct(t *testing.T) {
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct(nil) = %v, want 0", got)
	}
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := pct(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pct(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 3, 2, 4}) {
		t.Errorf("pct reordered its input: %v", xs)
	}
}

func TestTailEligibility(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, // 9.9 beyond
		{100, 90, true},
		{199, 95, false},
		{200, 95, true},
		{999, 99, false},
		{1000, 99, true},
		{40, 75, true},
		{39, 75, false},
	} {
		if got := tailEligible(c.n, c.p); got != c.want {
			t.Errorf("tailEligible(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {6000, 99}} {
		if got := highestEligibleTail(c.n); got != c.want {
			t.Errorf("highestEligibleTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.07}
	for _, c := range []struct {
		d          metricDef
		base, cand float64
		want       float64
	}{
		{lower, 100, 112, 0.12},
		{lower, 100, 90, -0.10},
		{higher, 100, 90, 0.10},
		{higher, 100, 105, -0.05},
		{higher, 0, 5, 0},
	} {
		if got := worsening(c.d, c.base, c.cand); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", c.d.Name, c.base, c.cand, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	at := func(median, spread float64) series { return series{Median: median, Spread: spread} }
	for _, c := range []struct {
		name       string
		base, cand series
		want       verdict
	}{
		{"inside the bound", at(100, 0.02), at(109, 0.02), same},
		{"past the bound", at(100, 0.02), at(111, 0.02), worse},
		{"better is same", at(100, 0.02), at(50, 0.02), same},
		{"noisy base", at(100, 0.15), at(130, 0.02), unresolved},
		{"noisy candidate", at(100, 0.02), at(100, 0.11), unresolved},
	} {
		if got, _ := judge(d, c.base, c.cand); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// The quartiles are those of Python's statistics.quantiles(xs, n=4), which is
// what the driver uses: for 1..10 they are 2.75 and 8.25.
func TestSpreadShareMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spreadShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want %v", got, want)
	}
	if got := spreadShare([]float64{3}); got != 0 {
		t.Errorf("spreadShare of one value = %v, want 0", got)
	}
	if got := spreadShare([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("spreadShare of equal values = %v, want 0", got)
	}
}

// validMetricName is the benchmark contract's rule for a name: it starts with
// a letter or digit and holds at most 64 letters, digits, '_', '.' and '-'.
func validMetricName(name string) bool {
	return regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`).MatchString(name)
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"a", "latency_p50_ms", "serve.queue_wait_ms_p50", "9lives", "A-b.c_d", strings.Repeat("x", 64)} {
		if !validMetricName(ok) {
			t.Errorf("validMetricName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "_x", "-x", "has space", "slash/name", "pct%", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true, want false", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validMetricName(d.Name) {
			t.Errorf("table holds invalid metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// BENCHMARK.json repeats the workload and metric tables for the driver; the
// code is what runs, so the two must say the same thing.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q / %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
}

func TestWaitFor(t *testing.T) {
	done := make(chan struct{})
	if waitFor(done, time.Millisecond) {
		t.Error("waitFor reported an open channel done")
	}
	close(done)
	// A closed channel wins even against a limit that has already passed.
	for i := 0; i < 100; i++ {
		if !waitFor(done, 0) || !waitFor(done, -time.Second) {
			t.Fatal("waitFor missed a closed channel")
		}
	}
}

func TestPlannerIsSeeded(t *testing.T) {
	w := &workloads[1]
	a := newPlanner(w, 7, 128).poisson(w.RateRPS, 2*time.Second)
	b := newPlanner(w, 7, 128).poisson(w.RateRPS, 2*time.Second)
	c := newPlanner(w, 8, 128).poisson(w.RateRPS, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same arrivals")
	}
	if n := len(a); n < 450 || n > 750 {
		t.Errorf("%d arrivals in 2 s at %v req/s", n, w.RateRPS)
	}
	classes := make([]int, len(w.Mix))
	for _, r := range a {
		classes[r.Class]++
	}
	for i, n := range classes {
		if n == 0 {
			t.Errorf("class %d never drawn in %d arrivals", i, len(a))
		}
	}
}

// TestSmoke runs every workload's end-to-end pass on a window of a second or
// two: the system comes up, serves, and every output matches the reference.
// It asserts no timing, so it holds on a loaded machine.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.Watchdog = 5 * time.Second // other packages' tests share the CPUs
		t.Run(w.Name, func(t *testing.T) {
			window := time.Second
			if w.Remotes > 0 {
				window = 2 * time.Second // a handful of ~300 ms requests
			}
			res, err := runWorkload(runOpts{W: &w, Seed: 1, Window: window, WarmUp: 300 * time.Millisecond, MinSetups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Error("logits differ from the reference")
			}
			if res.Attempted < 1 {
				t.Errorf("attempted = %d", res.Attempted)
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("metric %s missing", d.Name)
				} else if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v", d.Name, v)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced pass of the cheapest workload: every
// per-layer metric is set and the staged replay agrees with Scheduler.Infer.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	w := workloads[0]
	w.Watchdog = 5 * time.Second
	res, err := runWorkload(runOpts{W: &w, Seed: 1, Window: 2 * time.Second,
		WarmUp: 300 * time.Millisecond, Traced: true, MinSetups: 1, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Error("logits differ from the reference")
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	data, err := os.ReadFile(dir + "/trace_" + w.Name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Name != "request" {
		t.Errorf("trace holds %d spans, first %+v", len(spans), spans)
	}
}
