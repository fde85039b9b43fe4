package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Weight seed of every supernet (gateway and daemons): the cmd/ default.
const weightSeed = 42

// poolPerRes is how many input tensors are generated per input resolution.
const poolPerRes = 64

// Emulated link of each dist2 daemon: one point of the paper's Fig. 13 grid.
const (
	linkMbps    = 100.0
	linkDelayMs = 5.0
)

// sloClass is one slice of a workload's request mix.
type sloClass struct {
	Share float64
	SLO   runtime.SLO
}

// workload is one named traffic mix and the system it runs against.
type workload struct {
	Name string
	Why  string
	// Arch builds the search space; Remotes is the number of in-process
	// daemons behind netem (0 = local only).
	Arch    func() *supernet.Arch
	Remotes int
	// Clients > 0 is a closed loop with that many clients; RateRPS > 0 is an
	// open loop with Poisson arrivals at that rate.
	Clients int
	RateRPS float64
	Mix     []sloClass
	// InputRes are the input resolutions, drawn uniformly per request.
	InputRes []int
	// Partition, when non-zero, overrides every layer's grid in the pinned
	// configs, and Tiles assigns the tiles of each layer to devices.
	Partition supernet.Partition
	Tiles     []int
	// TailPct is the frozen percentile behind latency_tail_ms: the highest of
	// tailCandidates with at least ten samples beyond it at HEAD's rate over
	// the default window that also repeated across seeds.
	TailPct float64
	WarmUp  time.Duration
	// Watchdog bounds one Submit; past it the request counts as failed. A
	// worker that sleeps through its linger is woken long before (kickAfter),
	// so it is only reached when the gateway has stopped serving.
	Watchdog time.Duration
	// Tolerance is the largest |logit - reference| accepted (0 = bit for bit).
	Tolerance float32
}

func tinyArch() *supernet.Arch { return supernet.TinyArch(4) }

// tinyLatencySLOMs is the latency SLO of the tiny-net workloads. Decisions are
// pinned, so the value only feeds admission, queue expiry and the ladder. It
// is wide enough that a request on a shared host is never refused or dropped
// for a stall of the host or for a few kickAfter waits in a row: a workload
// whose failures follow the host's mood cannot be compared between runs.
const tinyLatencySLOMs = 250

var workloads = []workload{
	{
		Name:     "local_tiny_closed1",
		Why:      "one closed-loop client on the tiny net: serve-layer queueing and linger are nearly all of the latency (tail p95)",
		Arch:     tinyArch,
		Clients:  1,
		Mix:      []sloClass{{1, runtime.SLO{Type: env.LatencySLO, Value: tinyLatencySLOMs}}},
		InputRes: []int{32},
		TailPct:  95,
		WarmUp:   2 * time.Second,
		Watchdog: 2 * time.Second,
	},
	{
		Name:    "local_tiny_open300",
		Why:     "open-loop Poisson 300 req/s, mixed SLO classes and resolutions: arrivals overlap so batches and queues form (tail p90)",
		Arch:    tinyArch,
		RateRPS: 300,
		Mix: []sloClass{
			{0.5, runtime.SLO{Type: env.LatencySLO, Value: tinyLatencySLOMs}},
			{0.3, runtime.SLO{Type: env.AccuracySLO, Value: 75}},
			{0.2, runtime.SLO{}},
		},
		InputRes:  []int{24, 32},
		TailPct:   90,
		WarmUp:    2 * time.Second,
		Watchdog:  2 * time.Second,
		Tolerance: 1e-5,
	},
	{
		Name:     "local_default_closed2",
		Why:      "two closed-loop clients on the paper-scale net, local 1x1: tensor, nn and supernet kernels saturate the CPU (tail p75)",
		Arch:     supernet.DefaultArch,
		Clients:  2,
		Mix:      []sloClass{{1, runtime.SLO{Type: env.LatencySLO, Value: 1000}}},
		InputRes: []int{224},
		TailPct:  75,
		WarmUp:   2 * time.Second,
		Watchdog: 2 * time.Second,
	},
	{
		Name:      "dist2_default_closed1",
		Why:       "paper path: 2x2 8-bit tiles on two loopback daemons behind 100 Mb/s 5 ms netem; wire, client mutex and codecs dominate (tail p75)",
		Arch:      supernet.DefaultArch,
		Remotes:   2,
		Clients:   1,
		Mix:       []sloClass{{1, runtime.SLO{Type: env.LatencySLO, Value: 2000}}},
		InputRes:  []int{224},
		Partition: supernet.Partition{Gy: 2, Gx: 2},
		Tiles:     []int{1, 2, 1, 2},
		TailPct:   75,
		WarmUp:    3 * time.Second,
		Watchdog:  5 * time.Second,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// decisions builds the workload's pinned decisions, keyed "min" and "max",
// plus an all-local twin of each for the reference. Pinning means a parent
// and a change execute identical work; the real deciders are timed on their
// own in the traced pass.
func (w *workload) decisions(arch *supernet.Arch) (pinned, local map[string]*env.Decision, _ error) {
	pinned = make(map[string]*env.Decision)
	local = make(map[string]*env.Decision)
	for kind, cfg := range map[string]*supernet.Config{"min": arch.MinConfig(), "max": arch.MaxConfig()} {
		if w.Partition.NumTiles() > 0 {
			for i := range cfg.Layers {
				cfg.Layers[i].Partition = w.Partition
			}
		}
		costs, err := arch.Costs(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s config: %w", kind, err)
		}
		local[kind] = &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}
		place := supernet.LocalPlacement(costs)
		if w.Tiles != nil {
			for k := range place.Devices {
				copy(place.Devices[k], w.Tiles)
			}
		}
		if err := place.Validate(costs, 1+w.Remotes); err != nil {
			return nil, nil, fmt.Errorf("%s placement: %w", kind, err)
		}
		pinned[kind] = &env.Decision{Config: cfg, Placement: place}
	}
	return pinned, local, nil
}

// configKind names the pinned decision a constraint resolves to: accuracy
// SLOs get the largest submodel, everything else (latency and best-effort)
// the smallest. The bench-owned decider and the output check both use it.
func configKind(t env.SLOType, accuracyPct float64) string {
	if t == env.AccuracySLO && accuracyPct > 0 {
		return "max"
	}
	return "min"
}

func (c sloClass) kind() string { return configKind(c.SLO.Type, c.SLO.Value) }

// planned is one generated request: what to send and, for the open loop, when.
type planned struct {
	Input int // index into the pool
	Class int // index into the workload's Mix
	Due   time.Duration
}

// newPool generates poolPerRes input tensors per input resolution from seed.
// These are the only inputs the system under test ever receives.
func newPool(w *workload, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	var pool []*tensor.Tensor
	for _, res := range w.InputRes {
		for i := 0; i < poolPerRes; i++ {
			x := tensor.New(1, 3, res, res)
			x.RandNormal(rng, 1)
			pool = append(pool, x)
		}
	}
	return pool
}

// planner draws requests from a seeded stream: input (uniform over the pool,
// hence uniform over resolutions) and SLO class (by Mix share).
type planner struct {
	w   *workload
	rng *rand.Rand
	n   int
}

func newPlanner(w *workload, seed int64, poolSize int) *planner {
	return &planner{w: w, rng: rand.New(rand.NewSource(seed)), n: poolSize}
}

func (p *planner) next() planned {
	u := p.rng.Float64()
	class := len(p.w.Mix) - 1
	for i, c := range p.w.Mix {
		if u < c.Share {
			class = i
			break
		}
		u -= c.Share
	}
	return planned{Input: p.rng.Intn(p.n), Class: class}
}

// poisson plans every arrival of an open-loop phase up front, so the
// dispatcher does no drawing while it is keeping time. The schedule is a
// Poisson process conditioned on its count: exactly rate x dur arrivals at
// independent uniform times, sorted. Gaps are exponential as in any Poisson
// stream, but every seed offers the same number of requests, so throughput
// and the per-request averages do not inherit the count's 1/sqrt(n) scatter.
func (p *planner) poisson(rate float64, dur time.Duration) []planned {
	out := make([]planned, int(rate*dur.Seconds()))
	for i := range out {
		out[i].Due = time.Duration(p.rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Due < out[b].Due })
	for i := range out {
		r := p.next()
		out[i].Input, out[i].Class = r.Input, r.Class
	}
	return out
}
