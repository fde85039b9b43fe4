// Command murmuration-loadgen synthesizes and replays scenario traces against
// a running murmuration-gateway.
//
// Generate mode (-gen) builds a seeded trace from a composable arrival
// process plus an optional churn timeline and writes it to -out (JSON when
// the path ends in .json, binary otherwise). The same seed always produces
// the byte-identical trace.
//
// Replay mode (the default) decodes -trace, drives its request arrivals
// open-loop at -gateway over rpcx, scores per-class SLO attainment
// client-side, fetches the gateway's counter delta over the stats wire, and
// writes the combined machine-readable report to -report (stdout by
// default). Environment events in the trace are skipped with a warning:
// a remote loadgen has no reach into the deployment's link shapers.
//
// Usage:
//
//	murmuration-loadgen -gen -out steady.json -process poisson -rate 100 \
//	  -duration 30s -seed 7 -churn-devices 2 -churn-mean-up 10s -churn-downtime 2s
//	murmuration-loadgen -gateway 127.0.0.1:7100 -trace steady.json -report report.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
)

func main() {
	// Mode selection.
	gen := flag.Bool("gen", false, "generate a trace instead of replaying one")

	// Shared.
	tracePath := flag.String("trace", "", "trace file to replay (JSON or binary, detected by content)")
	out := flag.String("out", "trace.json", "generate: output path (.json = JSON, else binary)")
	seed := flag.Int64("seed", 42, "generate: trace seed (same seed, byte-identical trace)")
	name := flag.String("name", "scenario", "generate: trace name")
	duration := flag.Duration("duration", 30*time.Second, "generate: workload window")

	// Arrival process.
	process := flag.String("process", "poisson", "generate: arrival process: poisson, diurnal, flash, pareto")
	rate := flag.Float64("rate", 50, "generate: mean arrival rate, requests/s")
	amplitude := flag.Float64("amplitude", 25, "generate: diurnal swing around -rate, requests/s")
	period := flag.Duration("period", 10*time.Second, "generate: diurnal cycle length")
	burstAt := flag.Duration("burst-at", 10*time.Second, "generate: flash-crowd burst start")
	burstDur := flag.Duration("burst-dur", 5*time.Second, "generate: flash-crowd burst length")
	burstMult := flag.Float64("burst-mult", 10, "generate: flash-crowd rate multiplier during the burst")
	alpha := flag.Float64("alpha", 1.5, "generate: pareto tail exponent (>1)")

	// Request mix.
	latencyMs := flag.Float64("slo-latency-ms", 250, "generate: deadline for the latency class, ms")
	accuracy := flag.Float64("slo-accuracy", 75, "generate: accuracy floor for the accuracy class")
	latencyW := flag.Float64("weight-latency", 0.5, "generate: latency-class share of arrivals")
	accuracyW := flag.Float64("weight-accuracy", 0.3, "generate: accuracy-class share of arrivals")
	bestEffortW := flag.Float64("weight-best-effort", 0.2, "generate: best-effort share of arrivals")

	// Churn timeline.
	churnDevices := flag.Int("churn-devices", 0, "generate: devices covered by the churn timeline (0 = no churn)")
	churnMeanUp := flag.Duration("churn-mean-up", 10*time.Second, "generate: mean healthy stretch before a device leaves")
	churnDowntime := flag.Duration("churn-downtime", 2*time.Second, "generate: outage length before a departed device rejoins")
	degradeEvery := flag.Duration("degrade-every", 0, "generate: mean period between link-degrade windows (0 = none)")
	degradeFor := flag.Duration("degrade-for", 2*time.Second, "generate: length of each link-degrade window")
	degradeDelayMs := flag.Float64("degrade-delay-ms", 120, "generate: one-way link delay inside a degrade window, ms")
	calmDelayMs := flag.Float64("calm-delay-ms", 2, "generate: one-way link delay outside degrade windows, ms")
	slowEvery := flag.Duration("slow-every", 0, "generate: mean period between slow-compute windows (0 = none)")
	slowFor := flag.Duration("slow-for", 2*time.Second, "generate: length of each slow-compute window")
	slowFactor := flag.Float64("slow-factor", 10, "generate: compute-latency multiplier inside a slow-compute window (>1)")
	cerrEvery := flag.Duration("cerr-every", 0, "generate: mean period between compute-error windows (0 = none)")
	cerrFor := flag.Duration("cerr-for", 2*time.Second, "generate: length of each compute-error window")
	cerrRate := flag.Float64("cerr-rate", 0.3, "generate: per-call (one fused run of blocks) failure probability inside a compute-error window")
	restartEvery := flag.Duration("restart-every", 0, "generate: mean period between in-place daemon restarts (0 = none)")
	asymEvery := flag.Duration("asym-every", 0, "generate: mean period between asymmetric stall windows (0 = none)")
	asymFor := flag.Duration("asym-for", 2*time.Second, "generate: length of each asymmetric stall window")
	asymMinBytes := flag.Int("asym-min-bytes", 0, "generate: frame size that wedges inside a stall window (0 = 4096)")

	// Correlated-failure script: one mass kill and one mass recovery at fixed
	// offsets, independent of the randomized churn timeline above.
	massKillAt := flag.Duration("mass-kill-at", 0, "generate: offset of a correlated mass kill (0 = none)")
	massKillFrac := flag.Float64("mass-kill-frac", 0.5, "generate: fleet fraction the mass kill removes, (0, 1]")
	recoverAt := flag.Duration("recover-at", 0, "generate: offset of the mass recovery returning every killed device (0 = none)")

	// Replay.
	gateway := flag.String("gateway", "", "replay: gateway rpcx address")
	speed := flag.Float64("speed", 1, "replay: trace clock multiplier (>1 compresses time)")
	timeout := flag.Duration("timeout", 60*time.Second, "replay: per-request RPC deadline")
	maxInFlight := flag.Int("max-in-flight", 1024, "replay: bound on concurrently outstanding requests")
	report := flag.String("report", "", "replay: report output path (default stdout)")
	flag.Parse()

	if *gen {
		generate(genConfig{
			out: *out, seed: *seed, name: *name, duration: *duration,
			process: *process, rate: *rate, amplitude: *amplitude, period: *period,
			burstAt: *burstAt, burstDur: *burstDur, burstMult: *burstMult, alpha: *alpha,
			latencyMs: *latencyMs, accuracy: *accuracy,
			latencyW: *latencyW, accuracyW: *accuracyW, bestEffortW: *bestEffortW,
			churnDevices: *churnDevices, churnMeanUp: *churnMeanUp, churnDowntime: *churnDowntime,
			degradeEvery: *degradeEvery, degradeFor: *degradeFor,
			degradeDelayMs: *degradeDelayMs, calmDelayMs: *calmDelayMs,
			slowEvery: *slowEvery, slowFor: *slowFor, slowFactor: *slowFactor,
			cerrEvery: *cerrEvery, cerrFor: *cerrFor, cerrRate: *cerrRate,
			restartEvery: *restartEvery,
			asymEvery:    *asymEvery, asymFor: *asymFor, asymMinBytes: *asymMinBytes,
			massKillAt: *massKillAt, massKillFrac: *massKillFrac, recoverAt: *recoverAt,
		})
		return
	}
	replay(*gateway, *tracePath, *speed, *timeout, *maxInFlight, *report)
}

type genConfig struct {
	out, name                         string
	seed                              int64
	duration, period                  time.Duration
	process                           string
	rate, amplitude, burstMult, alpha float64
	burstAt, burstDur                 time.Duration
	latencyMs, accuracy               float64
	latencyW, accuracyW, bestEffortW  float64
	churnDevices                      int
	churnMeanUp, churnDowntime        time.Duration
	degradeEvery, degradeFor          time.Duration
	degradeDelayMs, calmDelayMs       float64
	slowEvery, slowFor                time.Duration
	slowFactor                        float64
	cerrEvery, cerrFor                time.Duration
	cerrRate                          float64
	restartEvery                      time.Duration
	asymEvery, asymFor                time.Duration
	asymMinBytes                      int
	massKillAt, recoverAt             time.Duration
	massKillFrac                      float64
}

func generate(c genConfig) {
	var proc scenario.ArrivalProcess
	switch c.process {
	case "poisson":
		proc = scenario.Poisson{Rate: c.rate}
	case "diurnal":
		proc = scenario.Diurnal{Base: c.rate, Amplitude: c.amplitude, Period: c.period}
	case "flash":
		proc = scenario.FlashCrowd{Base: c.rate, Bursts: []scenario.Burst{
			{At: c.burstAt, Duration: c.burstDur, Multiplier: c.burstMult},
		}}
	case "pareto":
		proc = scenario.Pareto{Rate: c.rate, Alpha: c.alpha}
	default:
		log.Fatalf("unknown process %q (want poisson, diurnal, flash, or pareto)", c.process)
	}

	mix := scenario.DefaultMix()
	mix.Classes = []scenario.ClassShare{
		{SLOType: env.LatencySLO, SLOValue: c.latencyMs, Weight: c.latencyW},
		{SLOType: env.AccuracySLO, SLOValue: c.accuracy, Weight: c.accuracyW},
		{SLOType: env.LatencySLO, SLOValue: 0, Weight: c.bestEffortW},
	}

	var churn []scenario.Event
	if c.churnDevices > 0 {
		churn = scenario.Churn(scenario.ChurnOptions{
			Devices: c.churnDevices,
			MeanUp:  c.churnMeanUp, Downtime: c.churnDowntime,
			DegradeEvery: c.degradeEvery, DegradeFor: c.degradeFor,
			DegradeDelayMs: c.degradeDelayMs, CalmDelayMs: c.calmDelayMs,
			SlowEvery: c.slowEvery, SlowFor: c.slowFor, SlowFactor: c.slowFactor,
			ComputeErrEvery: c.cerrEvery, ComputeErrFor: c.cerrFor, ComputeErrRate: c.cerrRate,
			RestartEvery: c.restartEvery,
			AsymEvery:    c.asymEvery, AsymFor: c.asymFor, AsymMinBytes: c.asymMinBytes,
		}, c.duration, rand.New(rand.NewSource(c.seed)))
	}

	if c.massKillAt > 0 {
		churn = append(churn, scenario.Event{
			At: c.massKillAt, Kind: scenario.EvMassKill, Value: c.massKillFrac,
		})
	}
	if c.recoverAt > 0 {
		if c.massKillAt <= 0 || c.recoverAt <= c.massKillAt {
			log.Fatal("-recover-at needs an earlier -mass-kill-at to recover from")
		}
		churn = append(churn, scenario.Event{At: c.recoverAt, Kind: scenario.EvMassRecover})
	}

	tr, err := scenario.Synthesize(scenario.GenOptions{
		Name: c.name, Seed: c.seed, Duration: c.duration,
		Process: proc, Mix: mix, Env: churn,
	})
	if err != nil {
		log.Fatalf("synthesize: %v", err)
	}

	f, err := os.Create(c.out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if strings.HasSuffix(c.out, ".json") {
		err = tr.EncodeJSON(f)
	} else {
		err = tr.EncodeBinary(f)
	}
	if err != nil {
		log.Fatalf("encode: %v", err)
	}
	log.Printf("wrote %s: %d events (%d requests, %d environment) over %v, seed %d",
		c.out, len(tr.Events), tr.Requests(), len(tr.Events)-tr.Requests(), tr.Duration(), tr.Seed)
}

// decodeTrace sniffs the format: binary traces open with the MTRC magic,
// JSON traces with whitespace or '{'.
func decodeTrace(path string) (*scenario.Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) >= 4 && string(b[:4]) == "MTRC" {
		return scenario.DecodeBinary(strings.NewReader(string(b)))
	}
	return scenario.DecodeJSON(strings.NewReader(string(b)))
}

func replay(gateway, tracePath string, speed float64, timeout time.Duration, maxInFlight int, reportPath string) {
	if gateway == "" || tracePath == "" {
		log.Fatal("replay needs -gateway and -trace (or pass -gen to generate)")
	}
	tr, err := decodeTrace(tracePath)
	if err != nil {
		log.Fatalf("decode %s: %v", tracePath, err)
	}
	cl, err := serve.DialClient(gateway)
	if err != nil {
		log.Fatalf("dial gateway %s: %v", gateway, err)
	}
	defer cl.Close()

	before, statsErr := cl.Stats()
	if statsErr != nil {
		log.Printf("warning: stats unavailable before run: %v (report will omit the gateway section)", statsErr)
	}

	sc := scenario.NewScorer()
	start := time.Now()
	res, err := scenario.Run(tr, scenario.RunOptions{
		Submitter:   &scenario.WireSubmitter{Client: cl, Timeout: timeout},
		Speed:       speed,
		MaxInFlight: maxInFlight,
		OnEnvSkipped: func(ev scenario.Event) {
			log.Printf("warning: skipping %v event for device %d at %v — environment events need daemon-side orchestration",
				ev.Kind, ev.Device, ev.At)
		},
	}, sc)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	log.Printf("replayed %d requests in %v (%d environment events skipped)",
		res.Requests, res.Elapsed, res.EnvSkipped)

	var gw *scenario.GatewayReport
	var policyVersion uint64
	if statsErr == nil {
		if after, err := cl.Stats(); err != nil {
			log.Printf("warning: stats unavailable after run: %v", err)
		} else {
			gw = scenario.GatewayDelta(before, after)
			policyVersion = after.PolicyVersion
		}
	}
	rep := sc.Report(tr.Name, gw)
	if gw != nil {
		// Report header: which stats frame version the gateway spoke and which
		// policy version was serving when the run ended.
		rep.StatsWireVersion = serve.StatsWireVersion
		rep.PolicyVersion = policyVersion
	}
	js, err := rep.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if reportPath == "" {
		fmt.Println(string(js))
		_ = start
		return
	}
	if err := os.WriteFile(reportPath, append(js, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", reportPath)
}
