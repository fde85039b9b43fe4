package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"murmuration/internal/serve"
	"murmuration/internal/stats"
	"murmuration/internal/tensor"
)

// runOpts selects one workload run.
type runOpts struct {
	W      *workload
	Seed   int64
	Window time.Duration // measured (untraced) or offered (traced) load time
	WarmUp time.Duration
	Traced bool
	// MinSetups is how many times an untraced run brings the system up;
	// setup_s is the median. Cheap set-ups repeat further, see measureSetup.
	MinSetups int
	// TraceDir receives trace_<workload>.json from a traced run ("" = none).
	TraceDir string
}

// result is what one run reports; it marshals to the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload brings the system up, offers the workload, checks every output
// and returns the end-to-end metrics (untraced) or the per-layer ones (traced).
func runWorkload(o runOpts) (*result, error) {
	w := o.W
	pool := newPool(w, o.Seed)

	if o.Traced {
		// The traced pass reports no set-up time, so it brings up once.
		sys, err := bringUp(w, true)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		defer sys.tearDown()
		logPhase(w, "warm-up", runPhase(w, sys, pool, o.Seed+1, o.WarmUp))
		return runTraced(o, sys, pool)
	}

	sys, setup, err := measureSetup(w, pool, o.MinSetups)
	if err != nil {
		return nil, err
	}
	defer sys.tearDown()
	logPhase(w, "warm-up", runPhase(w, sys, pool, o.Seed+1, o.WarmUp))

	before := readUsage(sys)
	ph := runPhase(w, sys, pool, o.Seed+2, o.Window)
	after := readUsage(sys)
	heap := liveHeapMB()
	logPhase(w, "measured", ph)

	mismatches, err := verify(w, sys, pool, ph.Samples)
	if err != nil {
		return nil, err
	}
	sent, served, failed, _, _ := ph.counts()
	if served == 0 {
		return nil, fmt.Errorf("%s: no request was served in the measured window", w.Name)
	}

	lat := servedLatenciesMs(ph.Samples)
	p50 := pct(lat, 50)
	// Lateness can only reach a reported latency through the percentiles that
	// are reported, so the generator is judged at the workload's tail.
	if lag := pct(ph.LagMs, w.TailPct); lag > p50/2 {
		fmt.Fprintf(os.Stderr, "bench: %s: INVALID RUN: generator lag p%.0f %.3f ms exceeds half of latency p50 %.3f ms\n", w.Name, w.TailPct, lag, p50)
	}
	if !tailEligible(len(lat), w.TailPct) {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d samples beyond p%.0f (want 10): latency_tail_ms is under-sampled at this window\n",
			w.Name, samplesBeyond(len(lat), w.TailPct), w.TailPct)
	}

	n := float64(served)
	rep := newReport(endToEnd)
	rep.set("throughput_rps", n/ph.wall().Seconds())
	rep.set("latency_p50_ms", p50)
	rep.set("latency_tail_ms", pct(lat, w.TailPct))
	rep.set("slo_attainment", float64(attained(w, ph.Samples))/float64(sent))
	rep.set("served_share", n/float64(sent))
	rep.set("allocs_per_req", float64(after.Mallocs-before.Mallocs)/n)
	rep.set("alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	rep.set("live_heap_mb", heap)
	rep.set("setup_s", setup.Seconds())
	rep.print(w.Name)
	fmt.Printf("%-22s latency ms: mean %.4g", w.Name, stats.Mean(lat))
	for _, p := range tailCandidates {
		fmt.Printf(", p%.0f %.4g", p, pct(lat, p))
	}
	fmt.Printf(" (tail is p%.0f, highest with ten samples beyond it p%.0f); generator lag p99 %.3f ms, sleep margin %v\n",
		w.TailPct, highestEligibleTail(len(lat)), pct(ph.LagMs, 99), ph.Margin)
	fmt.Printf("%-22s %.6g ms CPU per request (%.6g ms of it system), cpu_util %.3f cores of %d, %d samples, %d logit mismatches\n",
		w.Name, ms(after.CPU-before.CPU)/n, ms(after.SysCPU-before.SysCPU)/n,
		(after.CPU-before.CPU).Seconds()/ph.wall().Seconds(), maxProcs(), len(lat), mismatches)

	return &result{Correct: mismatches == 0, Attempted: sent, Failed: failed, Metrics: rep.vals}, nil
}

// measureSetup brings the system up and serves one request, at least min
// times, and keeps the last instance for the run. A set-up that takes
// milliseconds repeats until a second has been spent (at most 25 times), so
// the median of a tiny-net set-up is as steady as that of a 1 s one.
func measureSetup(w *workload, pool []*tensor.Tensor, min int) (*system, time.Duration, error) {
	var times []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		sys, err := bringUp(w, false)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		if err := firstRequest(w, sys, pool); err != nil {
			sys.tearDown()
			return nil, 0, fmt.Errorf("%s: first request: %w", w.Name, err)
		}
		dt := time.Since(t0)
		times = append(times, dt.Seconds())
		spent += dt
		if len(times) >= min && (spent >= time.Second || len(times) >= 25) {
			return sys, time.Duration(pct(times, 50) * float64(time.Second)), nil
		}
		sys.tearDown()
	}
}

// firstRequest sends the first pooled input until an outcome arrives: like any
// closed-loop client it sends again when the worker that holds a request
// sleeps (see kickAfter), and the workers then serve both.
func firstRequest(w *workload, sys *system, pool []*tensor.Tensor) error {
	for limit := time.Now().Add(w.Watchdog); time.Now().Before(limit); {
		s := &sample{Start: time.Now()}
		if w.send(sys, pool, s) {
			return s.Err
		}
	}
	return errWatchdog
}

func logPhase(w *workload, name string, p *phase) {
	sent, served, failed, kicked, timedOut := p.counts()
	fmt.Printf("%-22s phase %-9s sent %d served %d failed %d (kicked %d, watchdog %d) in %.2f s\n",
		w.Name, name, sent, served, failed, kicked, timedOut, p.wall().Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func servedLatenciesMs(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].served() {
			out = append(out, ms(samples[i].latency()))
		}
	}
	return out
}

// attained counts requests served within their SLO as the client saw it:
// latency from the due time against the class's limit. A request without a
// latency limit is attained when served; anything not served is a miss.
func attained(w *workload, samples []sample) int {
	n := 0
	for i := range samples {
		s := &samples[i]
		if !s.served() {
			continue
		}
		slo := w.Mix[s.Class].SLO
		if serve.ClassFor(slo) == serve.ClassLatency && ms(s.latency()) > slo.Value {
			continue
		}
		n++
	}
	return n
}

// batchKey identifies the batch a served request rode in: batch-mates share
// one ExecTime measurement to the nanosecond, one size, one pinned decision
// and one degradation rung.
type batchKey struct {
	exec time.Duration
	size int
	kind string
	rung int
}

// verify compares every served request's logits with a local-only reference
// on the all-local twin of its pinned decision. The reference is computed for
// the batch the request actually rode in, because 8-bit layers quantize with
// one scale per tensor and so a request's logits depend on its batch-mates,
// and at the rung it was served at, because the gateway's ladder degrades the
// decision under deadline pressure (for every class, once it has descended).
// Single requests share a per-(input, decision, rung) cache.
func verify(w *workload, sys *system, pool []*tensor.Tensor, samples []sample) (mismatches int, err error) {
	type refKey struct {
		input int
		kind  string
		rung  int
	}
	single := make(map[refKey]*tensor.Tensor)
	batches := make(map[batchKey][]*sample)
	for i := range samples {
		s := &samples[i]
		if !s.served() {
			continue
		}
		kind := w.Mix[s.Class].kind()
		if s.Out.BatchSize > 1 {
			k := batchKey{s.Out.ExecTime, s.Out.BatchSize, kind, s.Out.Rung}
			batches[k] = append(batches[k], s)
			continue
		}
		k := refKey{s.Input, kind, s.Out.Rung}
		ref, ok := single[k]
		if !ok {
			outs, err := sys.reference(kind, s.Out.Rung, []*tensor.Tensor{pool[s.Input]})
			if err != nil {
				return 0, fmt.Errorf("%s: reference: %w", w.Name, err)
			}
			ref = outs[0]
			single[k] = ref
		}
		if !sameLogits(s.Out.Logits, ref, w.Tolerance) {
			mismatches++
		}
	}
	unverified := 0
	for k, group := range batches {
		if len(group)%k.size != 0 {
			// A batch-mate's outcome was lost to the watchdog, so the batch
			// cannot be rebuilt; its lost member already counts as failed.
			unverified += len(group)
			continue
		}
		// Two batches of one size now and then share an ExecTime to the
		// nanosecond. Batch-mates get their outcomes together, so in End
		// order each batch is a run of k.size samples.
		sort.Slice(group, func(a, b int) bool { return group[a].End.Before(group[b].End) })
		for ; len(group) > 0; group = group[k.size:] {
			mates := group[:k.size]
			xs := make([]*tensor.Tensor, len(mates))
			for i, s := range mates {
				xs[i] = pool[s.Input]
			}
			refs, err := sys.reference(k.kind, k.rung, xs)
			if err != nil {
				return 0, fmt.Errorf("%s: batch reference: %w", w.Name, err)
			}
			for i, s := range mates {
				if !sameLogits(s.Out.Logits, refs[i], w.Tolerance) {
					mismatches++
				}
			}
		}
	}
	if unverified > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d served requests rode in batches that could not be rebuilt and were not checked\n", w.Name, unverified)
	}
	return mismatches, nil
}

// sameLogits reports whether got equals want within tol (0 = bit for bit).
func sameLogits(got, want *tensor.Tensor, tol float32) bool {
	if got == nil || want == nil || len(got.Data) != len(want.Data) {
		return false
	}
	for i, g := range got.Data {
		d := float64(g - want.Data[i])
		if math.IsNaN(d) || math.Abs(d) > float64(tol) {
			return false
		}
	}
	return true
}
