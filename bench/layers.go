package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"murmuration/internal/device"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// runTraced is the traced pass: an untraced reference phase, then the same
// load with handler timing and span recording on, then a direct-call phase
// that times each layer's public functions on this workload's shapes. Every
// number is taken from outside the layers: Outcome fields, Gateway.Stats,
// a wrapped exec.block handler and a byte-counting listener.
func runTraced(o runOpts, sys *system, pool []*tensor.Tensor) (*result, error) {
	w := o.W
	refDur, tracedDur := o.Window/4, o.Window/2
	if refDur > 5*time.Second {
		refDur = 5 * time.Second
	}
	if tracedDur > 15*time.Second {
		tracedDur = 15 * time.Second
	}

	ref := runPhase(w, sys, pool, o.Seed+2, refDur)
	logPhase(w, "untraced", ref)

	sys.setRecording(true)
	up0, down0 := sys.wireBytes()
	before := readUsage(sys)
	ph := runPhase(w, sys, pool, o.Seed+3, tracedDur)
	after := readUsage(sys)
	up1, down1 := sys.wireBytes()
	sys.setRecording(false)
	logPhase(w, "traced", ph)

	sent, served, failed, kicked, timedOut := ph.counts()
	if served == 0 {
		return nil, fmt.Errorf("%s: no request was served in the traced window", w.Name)
	}
	mismatches, err := verify(w, sys, pool, ph.Samples)
	if err != nil {
		return nil, err
	}

	rep := newReport(perLayer)
	d, err := directPhase(w, sys, pool, rep)
	if err != nil {
		return nil, err
	}
	if !d.replayMatches {
		mismatches++
		fmt.Fprintf(os.Stderr, "bench: %s: staged replay logits differ from Scheduler.Infer\n", w.Name)
	}

	n := float64(served)
	var queue, exec, decide, overhead []float64
	hits := 0
	for i := range ph.Samples {
		s := &ph.Samples[i]
		if !s.served() {
			continue
		}
		queue = append(queue, ms(s.Out.QueueWait))
		exec = append(exec, ms(s.Out.ExecTime))
		decide = append(decide, us(s.Out.DecideTime))
		// ExecTime already contains DecideTime (resolution runs inside the
		// worker's timed section), so only queue and exec are subtracted.
		overhead = append(overhead, us(s.latency()-s.Out.QueueWait-s.Out.ExecTime))
		if s.Out.CacheHit {
			hits++
		}
	}
	g0, g1 := before.Gateway, after.Gateway
	rep.set("serve.queue_wait_ms_p50", pct(queue, 50))
	rep.set("serve.queue_wait_ms_tail", pct(queue, w.TailPct))
	rep.set("serve.overhead_us_p50", pct(overhead, 50))
	rep.set("serve.batch_size_mean", div(float64(g1.BatchedRequests-g0.BatchedRequests), float64(g1.Batches-g0.Batches)))
	rep.set("serve.shed_share", float64(g1.Shed-g0.Shed)/float64(sent))
	rep.set("serve.deadline_missed_share", float64(g1.DeadlineMissed-g0.DeadlineMissed)/float64(sent))
	rep.set("serve.degraded_share", float64(g1.Degraded-g0.Degraded)/n)
	rep.set("runtime.decide_us_p50", pct(decide, 50))
	rep.set("runtime.cache_hit_ratio", float64(hits)/n)
	rep.set("runtime.exec_ms_p50", pct(exec, 50))
	rep.set("runtime.hedges_per_req", float64(g1.Hedges-g0.Hedges)/n)
	rep.set("runtime.hedge_wins", float64(g1.HedgeWins-g0.HedgeWins))
	rep.set("runtime.limiter_cuts", float64(g1.LimiterCuts-g0.LimiterCuts))
	rep.set("runtime.failovers", float64(g1.FailoverAttempts-g0.FailoverAttempts))
	rep.set("health.quarantines", float64(g1.Quarantines-g0.Quarantines))
	if g1.Quarantines > g0.Quarantines {
		fmt.Fprintf(os.Stderr, "bench: %s: INVALID RUN: a device was quarantined, so tiles were redirected\n", w.Name)
	}

	calls := sys.handlerCalls()
	var callMs []float64
	var busy time.Duration
	for _, c := range calls {
		callMs = append(callMs, ms(c.end.Sub(c.start)))
		busy += c.end.Sub(c.start)
	}
	rep.set("runtime.executor_ms_p50", pct(callMs, 50))
	rep.set("runtime.executor_ms_per_req", ms(busy)/n)
	rep.set("rpcx.calls_per_req", float64(after.RemoteCalls-before.RemoteCalls)/n)
	rep.set("rpcx.bytes_up_per_req", float64(up1-up0)/n)
	rep.set("rpcx.bytes_down_per_req", float64(down1-down0)/n)

	// Per request: what is left of the scheduler call once the gateway's own
	// stem, head and resize and the busiest device's handler time are taken
	// out. With one client that is wire, client-lock wait and codec.
	spans, perReq := attribute(ph.Samples, calls)
	var noncompute []float64
	if w.Remotes > 0 {
		for i := range ph.Samples {
			s := &ph.Samples[i]
			if !s.served() {
				continue
			}
			var slowest time.Duration
			for _, b := range perReq[i] {
				if b > slowest {
					slowest = b
				}
			}
			noncompute = append(noncompute, ms(s.Out.ExecTime-slowest)-d.localMs)
		}
	}
	nc := pct(noncompute, 50)
	rep.set("rpcx.noncompute_ms_p50", nc)
	rep.set("supernet.transfer_model_ratio", div(nc, d.predictedTransferMs))

	wall := ph.wall().Seconds()
	cpu := (after.CPU - before.CPU).Seconds()
	rep.set("bench.cpu_ms_per_req", 1000*cpu/n)
	rep.set("bench.cpu_util", cpu/wall)
	rep.set("bench.gc_cpu_share", div(after.GCCPU-before.GCCPU, cpu))
	rep.set("bench.samples", n)
	rep.set("bench.gen_lag_p99_ms", pct(ph.LagMs, 99))
	rep.set("bench.failed_share", float64(failed)/float64(sent))
	rep.set("bench.watchdog_timeouts", float64(kicked+timedOut))
	rep.set("bench.logit_mismatches", float64(mismatches))
	// The traced phase differs from the reference phase only in what the
	// bench records, so this is the cost of the instrument itself.
	base := pct(servedLatenciesMs(ref.Samples), 50)
	rep.set("bench.trace_overhead_pct", 100*div(pct(servedLatenciesMs(ph.Samples), 50)-base, base))

	if miss := rep.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: per-layer metrics never set: %v", w.Name, miss)
	}
	rep.print(w.Name)
	if o.TraceDir != "" {
		if err := writeSpans(o.TraceDir, w.Name, spans); err != nil {
			return nil, err
		}
	}
	return &result{Correct: mismatches == 0, Attempted: sent, Failed: failed, Metrics: rep.vals}, nil
}

// div is num/den, reading a zero denominator as 0: a workload without
// remotes, batches or a served reference phase reports 0, not NaN.
func div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// directResult carries what the direct-call phase learned that the traced
// phase's own metrics need.
type directResult struct {
	// localMs is the gateway-side compute of one request that never leaves
	// the process: resize, stem and head.
	localMs             float64
	predictedTransferMs float64
	replayMatches       bool
}

// timeIt calls f until it has run at least 5 times and for 100 ms, and
// returns the median duration of one call.
func timeIt(f func()) time.Duration {
	var ds []float64
	begin := time.Now()
	for len(ds) < 5 || time.Since(begin) < 100*time.Millisecond {
		t := time.Now()
		f()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(pct(ds, 50))
}

// directPhase times public functions of each layer on the workload's own
// shapes, with the gateway idle. It sets every metric that does not come
// from the offered load.
func directPhase(w *workload, sys *system, pool []*tensor.Tensor, rep *report) (directResult, error) {
	var d directResult
	class := w.Mix[0]
	kind := class.kind()
	x := pool[0]
	arch := sys.net.Arch

	// runtime (resolve): the live runtime, idle.
	rep.set("runtime.strategy_key_us", us(timeIt(func() { sys.rt.StrategyKeyFor(class.SLO) })))
	var rerr error
	resolve := func() {
		if _, err := sys.rt.ResolveFor(class.SLO); err != nil {
			rerr = err
		}
	}
	rep.set("runtime.resolve_hit_us", us(timeIt(resolve)))
	rep.set("runtime.resolve_miss_us", us(timeIt(func() {
		sys.rt.InvalidateStrategies()
		resolve()
	})))
	if rerr != nil {
		return d, fmt.Errorf("%s: resolve: %w", w.Name, rerr)
	}

	// runtime (scheduler): exact tile counts of one inference on the live
	// scheduler, and a local staged replay of the pinned decision built from
	// public functions, whose logits must equal Scheduler.Infer's.
	live, err := sys.rt.Scheduler.Infer(x, sys.pinned[kind])
	if err != nil {
		return d, fmt.Errorf("%s: direct Infer: %w", w.Name, err)
	}
	rep.set("runtime.remote_tiles_per_req", float64(live.RemoteTiles))
	rep.set("runtime.local_tiles_per_req", float64(live.LocalTiles))

	local := sys.local[kind]
	want, err := sys.ref.Scheduler.Infer(x, local)
	if err != nil {
		return d, fmt.Errorf("%s: reference Infer: %w", w.Name, err)
	}
	var inferMs, replayMs []float64
	stages := map[string][]float64{}
	d.replayMatches = sameLogits(live.Logits, want.Logits, 0)
	begin := time.Now()
	for len(replayMs) < 5 || time.Since(begin) < 1500*time.Millisecond {
		t := time.Now()
		if _, err := sys.ref.Scheduler.Infer(x, local); err != nil {
			return d, err
		}
		inferMs = append(inferMs, ms(time.Since(t)))

		acc := map[string]time.Duration{}
		got, err := replay(sys.net, x, local, func(stage string, f func()) {
			t := time.Now()
			f()
			acc[stage] += time.Since(t)
		})
		if err != nil {
			return d, fmt.Errorf("%s: replay: %w", w.Name, err)
		}
		if !sameLogits(got, want.Logits, 0) {
			d.replayMatches = false
		}
		var total time.Duration
		for _, stage := range replayStages {
			stages[stage] = append(stages[stage], ms(acc[stage]))
			total += acc[stage]
		}
		replayMs = append(replayMs, ms(total))
	}
	rep.set("runtime.sched_overhead_ms_p50", pct(inferMs, 50)-pct(replayMs, 50))
	rep.set("supernet.stem_ms", pct(stages["stem"], 50))
	rep.set("supernet.blocks_ms", pct(stages["block"], 50))
	rep.set("supernet.head_ms", pct(stages["head"], 50))
	d.localMs = pct(stages["resize"], 50) + pct(stages["stem"], 50) + pct(stages["head"], 50)

	// supernet allocations: the stem, block and head calls of one replay.
	var mallocs, bytesAlloc uint64
	var m0, m1 goruntime.MemStats
	if _, err := replay(sys.net, x, local, func(stage string, f func()) {
		if stage != "stem" && stage != "block" && stage != "head" {
			f()
			return
		}
		goruntime.ReadMemStats(&m0)
		f()
		goruntime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytesAlloc += m1.TotalAlloc - m0.TotalAlloc
	}); err != nil {
		return d, err
	}
	rep.set("supernet.forward_allocs", float64(mallocs))
	rep.set("supernet.forward_kb", float64(bytesAlloc)/1024)

	// supernet cost model: what EstimateLatency charges this decision for
	// transfers on a cluster with the same links. Computed, not measured.
	if w.Remotes > 0 {
		costs, err := arch.Costs(sys.pinned[kind].Config)
		if err != nil {
			return d, err
		}
		kinds := make([]device.Kind, 1+w.Remotes)
		for i := range kinds {
			kinds[i] = device.RaspberryPi4
		}
		br, err := supernet.EstimateLatency(costs, device.NewCluster(kinds, linkMbps, linkDelayMs), sys.pinned[kind].Placement)
		if err != nil {
			return d, err
		}
		d.predictedTransferMs = br.TransferSec * 1000
	}
	rep.set("supernet.predicted_transfer_ms", d.predictedTransferMs)

	kernels(rep)
	if err := pingFloor(rep); err != nil {
		return d, err
	}
	return d, deciders(w, arch, rep)
}

// replayStages are the stage names replay reports, in pipeline order.
var replayStages = []string{"resize", "stem", "split", "crop", "quant", "block", "paste", "head"}

// replay executes decision d on x the way Scheduler.InferBudget does for an
// all-local placement, but stage by stage through public functions and one
// tile at a time, handing each step to obs under its stage name.
func replay(net *supernet.Supernet, x *tensor.Tensor, d *env.Decision, obs func(stage string, f func())) (*tensor.Tensor, error) {
	arch, cfg := net.Arch, d.Config
	var y *tensor.Tensor
	obs("resize", func() { y = tensor.BilinearResize(x, cfg.Resolution, cfg.Resolution) })
	obs("stem", func() { y = net.ExecStem(y) })
	for layer, ls := range cfg.Layers {
		stage, index, stride, err := arch.BlockAt(cfg, layer)
		if err != nil {
			return nil, err
		}
		var y0s, x0s, ths, tws []int
		obs("split", func() { y0s, x0s, ths, tws, err = supernet.TileSplit(y.Shape[2], y.Shape[3], ls.Partition, stride) })
		if err != nil {
			return nil, err
		}
		var out *tensor.Tensor
		obs("paste", func() {
			out = tensor.New(y.Shape[0], arch.Stages[stage].Width, y.Shape[2]/stride, y.Shape[3]/stride)
		})
		for t := range y0s {
			var tile *tensor.Tensor
			obs("crop", func() { tile = tensor.CropSpatial(y, y0s[t], x0s[t], ths[t], tws[t]) })
			if ls.Quant != tensor.Bits32 {
				obs("quant", func() { tile = tensor.Quantize(tile, ls.Quant).Dequantize() })
			}
			obs("block", func() { tile, err = net.ExecBlock(stage, index, tile, ls) })
			if err != nil {
				return nil, err
			}
			obs("paste", func() { tensor.PasteSpatial(out, tile, y0s[t]/stride, x0s[t]/stride) })
		}
		y = out
	}
	var logits *tensor.Tensor
	obs("head", func() { logits = net.ExecHead(y) })
	return logits, nil
}

// kernels times tensor and nn primitives on fixed shapes taken from the
// paper-scale net's first block at resolution 160: the 1x16x80x80 block
// input, its 1x48x80x80 hidden map, and the 1x16x40x40 tile that
// dist2_default_closed1 ships (8-bit up) and the 1x24x20x20 tile it gets
// back (32-bit down). Fixed shapes keep these comparable across workloads.
func kernels(rep *report) {
	rng := rand.New(rand.NewSource(1))
	randn := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		t.RandNormal(rng, 1)
		return t
	}
	image := randn(1, 3, 224, 224)
	fmap := randn(1, 16, 80, 80)
	hidden := randn(1, 48, 80, 80)
	tileUp := randn(1, 16, 40, 40)
	tileDown := randn(1, 24, 20, 20)
	canvas := tensor.New(1, 24, 40, 40)

	rep.set("tensor.resize_us", us(timeIt(func() { tensor.BilinearResize(image, 160, 160) })))
	rep.set("tensor.crop_paste_us", us(timeIt(func() {
		tensor.CropSpatial(fmap, 0, 0, 40, 40)
		tensor.PasteSpatial(canvas, tileDown, 0, 0)
	})))
	rep.set("tensor.quantize_us", us(timeIt(func() {
		tensor.Quantize(tileUp, tensor.Bits8).Dequantize()
		tensor.Quantize(tileDown, tensor.Bits32).Dequantize()
	})))
	qUp, qDown := tensor.Quantize(tileUp, tensor.Bits8), tensor.Quantize(tileDown, tensor.Bits32)
	var wireUp, wireDown bytes.Buffer
	rep.set("tensor.encode_us", us(timeIt(func() {
		wireUp.Reset()
		wireDown.Reset()
		tensor.EncodeQuantized(&wireUp, qUp)
		tensor.EncodeQuantized(&wireDown, qDown)
	})))
	rep.set("tensor.decode_us", us(timeIt(func() {
		tensor.DecodeQuantized(bytes.NewReader(wireUp.Bytes()))
		tensor.DecodeQuantized(bytes.NewReader(wireDown.Bytes()))
	})))

	w1 := randn(48, 16, 1, 1)
	flops := 2.0 * 80 * 80 * 16 * 48
	rep.set("tensor.conv1x1_gflops", flops/timeIt(func() { tensor.Conv2D(fmap, w1, nil, tensor.ConvOpts{Stride: 1}) }).Seconds()/1e9)
	wd := randn(48, 1, 3, 3)
	flops = 2.0 * 40 * 40 * 48 * 9
	rep.set("tensor.dwconv_gflops", flops/timeIt(func() {
		tensor.DepthwiseConv2D(hidden, wd, nil, tensor.ConvOpts{Stride: 2, Padding: 1})
	}).Seconds()/1e9)

	gamma, beta, mean, variance := randn(48), randn(48), randn(48), tensor.New(48)
	variance.Fill(1)
	rep.set("nn.batchnorm_us", us(timeIt(func() {
		nn.BatchNormFwd(hidden, gamma, beta, mean, variance, false, 0.1, 1e-5)
	})))
}

// pingFloor measures the framing and syscall floor of one rpcx call: an echo
// over loopback with checksums on and no shaper.
func pingFloor(rep *report) error {
	srv := rpcx.NewServer()
	srv.SetChecksum(true)
	monitor.RegisterHandlers(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ping server: %w", err)
	}
	defer srv.Close()
	cl, err := rpcx.Dial(addr, nil)
	if err != nil {
		return fmt.Errorf("ping dial: %w", err)
	}
	defer cl.Close()
	cl.SetChecksum(true)
	var cerr error
	rtt := timeIt(func() {
		if _, err := cl.CallTimeout(monitor.PingMethod, []byte{1}, time.Second); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return fmt.Errorf("ping: %w", cerr)
	}
	rep.set("rpcx.ping_rtt_us_p50", us(rtt))
	return nil
}

// deciders times the real decision engines the pinned decider stands in for,
// on this workload's search space with three devices: an untrained policy's
// greedy decode (the cost is the same as a trained one's), the structured
// search fallback, and one cost-model evaluation.
func deciders(w *workload, arch *supernet.Arch, rep *report) error {
	kinds := []device.Kind{device.RaspberryPi4, device.RaspberryPi4, device.RaspberryPi4}
	e := env.New(arch, nas.NewCalibratedPredictor(arch), kinds)
	c := env.Constraint{
		Type:          env.LatencySLO,
		LatencyMs:     w.Mix[0].SLO.Value,
		BandwidthMbps: []float64{linkMbps, linkMbps},
		DelayMs:       []float64{linkDelayMs, linkDelayMs},
	}
	pol := policy.New(e, 64, 1)
	var derr error
	var dec *env.Decision
	rep.set("policy.decide_ms_p50", ms(timeIt(func() {
		if _, err := pol.GreedyDecision(c); err != nil {
			derr = err
		}
	})))
	rep.set("env.structured_search_ms_p50", ms(timeIt(func() {
		d, err := env.StructuredSearch(e, c)
		if err != nil {
			derr = err
		}
		dec = d
	})))
	if derr != nil {
		return fmt.Errorf("%s: decider: %w", w.Name, derr)
	}
	rep.set("env.evaluate_us_p50", us(timeIt(func() {
		if _, err := e.Evaluate(c, dec); err != nil {
			derr = err
		}
	})))
	if derr != nil {
		return fmt.Errorf("%s: evaluate: %w", w.Name, derr)
	}
	return nil
}

// attribute builds the span list of a traced phase and, per sample, the
// exec.block busy time of each device inside that request. A handler call
// belongs to the one request whose client-side interval contains its start;
// with several requests in flight it stays unattributed (request -1).
func attribute(samples []sample, calls []handlerCall) ([]span, []map[int]time.Duration) {
	perReq := make([]map[int]time.Duration, len(samples))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return samples[order[a]].Start.Before(samples[order[b]].Start) })

	var spans []span
	reqSpan := make([]int, len(samples))
	for i := range samples {
		s := &samples[i]
		id := len(spans)
		reqSpan[i] = id
		spans = append(spans, span{ID: id, Name: "request", Parent: -1, Request: i, start: s.Start, end: s.End})
		if !s.served() {
			continue
		}
		// The outcome carries durations, not stamps; the worker delivers right
		// after the timed section, so the spans are laid out back from End.
		execEnd := s.End
		execStart := execEnd.Add(-s.Out.ExecTime)
		spans = append(spans,
			span{ID: id + 1, Name: "serve.queue", Parent: id, Request: i, start: execStart.Add(-s.Out.QueueWait), end: execStart},
			span{ID: id + 2, Name: "runtime.exec", Parent: id, Request: i, start: execStart, end: execEnd},
			span{ID: id + 3, Name: "runtime.decide", Parent: id + 2, Request: i, start: execStart, end: execStart.Add(s.Out.DecideTime)})
	}
	for _, c := range calls {
		owner := -1
		for _, i := range order {
			s := &samples[i]
			if s.Start.After(c.start) {
				break
			}
			if !c.start.After(s.End) {
				if owner >= 0 {
					owner = -1
					break
				}
				owner = i
			}
		}
		sp := span{ID: len(spans), Name: fmt.Sprintf("executor.exec_block.dev%d", c.dev), Parent: -1, Request: owner, start: c.start, end: c.end}
		if owner >= 0 {
			sp.Parent = reqSpan[owner] + 2
			if perReq[owner] == nil {
				perReq[owner] = map[int]time.Duration{}
			}
			perReq[owner][c.dev] += c.end.Sub(c.start)
		}
		spans = append(spans, sp)
	}
	return spans, perReq
}
