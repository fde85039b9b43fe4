// Package murmuration is the public API of the Murmuration reproduction: an
// SLO-aware distributed DNN inference system that jointly adapts the neural
// architecture (a partition-ready one-shot NAS supernet) and its
// partitioning/placement across edge devices, following Lin et al.,
// "Murmuration: On-the-fly DNN Adaptation for SLO-Aware Distributed
// Inference in Dynamic Edge Environments" (ICPP '24).
//
// The package re-exports the stable core types and wires the three stages
// together behind two entry points:
//
//   - Train: stage 1 (one-shot NAS supernet training) and stage 2 (SUPREME
//     RL policy training) — see TrainSupernet and TrainPolicy.
//   - Serve: stage 3 — NewDaemon (or ServeDevice at its defaults) runs a
//     device daemon; NewGateway serves SLO-tagged requests from a set of
//     devices over rpcx; NewDeployment connects to them in process.
//
// Implementation packages live under internal/; see README.md for the map.
package murmuration

import (
	"fmt"
	"log"
	"time"

	"murmuration/internal/dataset"
	"murmuration/internal/device"
	"murmuration/internal/nas"
	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rl/supreme"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Re-exported core types. These aliases are the supported public surface;
// their methods are documented on the underlying types.
type (
	// Arch is a supernet search space (elastic resolution/depth/kernel/
	// width/partition/quantization).
	Arch = supernet.Arch
	// SubmodelConfig selects one submodel from a supernet.
	SubmodelConfig = supernet.Config
	// Decision is a joint submodel + placement choice.
	Decision = supernet.Decision
	// Placement assigns FDSP tiles to devices.
	Placement = supernet.Placement
	// Supernet holds the weight-shared network.
	Supernet = supernet.Supernet
	// Constraint is an SLO plus per-device network conditions.
	Constraint = env.Constraint
	// Tensor is the dense float32 array type used for inputs and outputs.
	Tensor = tensor.Tensor
	// SLO is a user objective (latency ms or accuracy percent).
	SLO = runtime.SLO
	// DeviceKind identifies a device profile.
	DeviceKind = device.Kind
	// Policy is the trained decision network.
	Policy = policy.Policy
)

// SLO types and device kinds.
const (
	LatencySLO  = env.LatencySLO
	AccuracySLO = env.AccuracySLO

	RaspberryPi4 = device.RaspberryPi4
	GPUDesktop   = device.GPUDesktop
)

// TinyArch returns the search space that trains in-process (examples,
// tests); DefaultArch returns the paper-scale space.
func TinyArch(classes int) *Arch { return supernet.TinyArch(classes) }

// DefaultArch returns the paper-scale MobileNetV3-style search space.
func DefaultArch() *Arch { return supernet.DefaultArch() }

// NewSupernet builds a supernet with deterministic weights. All devices of a
// deployment must use the same arch and seed (or share a checkpoint).
func NewSupernet(a *Arch, seed int64) *Supernet { return supernet.New(a, seed) }

// LoadSupernet builds the supernet a command names: arch "tiny" (with
// classes) or "default", weights from seed, then from checkpoint if given.
func LoadSupernet(arch string, classes int, seed int64, checkpoint string) (*Supernet, error) {
	var a *Arch
	switch arch {
	case "tiny":
		a = TinyArch(classes)
	case "default":
		a = DefaultArch()
	default:
		return nil, fmt.Errorf("unknown arch %q (want tiny or default)", arch)
	}
	net := NewSupernet(a, seed)
	if checkpoint != "" {
		if err := nn.LoadParams(checkpoint, net.Params()); err != nil {
			return nil, fmt.Errorf("load checkpoint: %w", err)
		}
		log.Printf("loaded supernet checkpoint %s", checkpoint)
	}
	return net, nil
}

// TrainSupernetOptions configures stage-1 training on the synthetic dataset.
type TrainSupernetOptions struct {
	Steps     int
	BatchSize int
	Classes   int
	PerClass  int
	Seed      int64
}

// TrainSupernet runs one-shot NAS training (sandwich rule + distillation) on
// a freshly generated synthetic dataset and reports the max-submodel
// validation accuracy.
func TrainSupernet(net *Supernet, opts TrainSupernetOptions) (valAccuracy float64, err error) {
	if opts.Steps <= 0 {
		opts.Steps = 300
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	if opts.Classes <= 0 {
		opts.Classes = net.Arch.NumClasses
	}
	if opts.PerClass <= 0 {
		opts.PerClass = 40
	}
	ds := dataset.Generate(dataset.Config{
		Classes: opts.Classes, PerClass: opts.PerClass, Size: 32,
		NoiseStd: 0.15, Seed: opts.Seed,
	})
	train, val := ds.Split(0.8)
	to := nas.DefaultTrainOptions()
	to.Steps = opts.Steps
	to.BatchSize = opts.BatchSize
	to.Seed = opts.Seed
	to.WarmupSteps = opts.Steps / 4
	if err := nas.Train(net, train, to); err != nil {
		return 0, err
	}
	return nas.Evaluate(net, net.Arch.MaxConfig(), val)
}

// TrainPolicyOptions configures stage-2 SUPREME training.
type TrainPolicyOptions struct {
	// Kinds are the deployment's device types (index 0 local).
	Kinds []DeviceKind
	// Latency SLO training range, milliseconds.
	SLOMinMs, SLOMaxMs float64
	// Link condition ranges.
	BwMinMbps, BwMaxMbps   float64
	DelayMinMs, DelayMaxMs float64
	Steps                  int
	Hidden                 int
	Seed                   int64
}

// TrainPolicy trains a SUPREME policy for the search space and device set
// and returns it ready for NewDeployment.
func TrainPolicy(a *Arch, opts TrainPolicyOptions) (*Policy, error) {
	if len(opts.Kinds) < 1 {
		return nil, fmt.Errorf("murmuration: at least one device kind required")
	}
	if opts.Steps <= 0 {
		opts.Steps = 1000
	}
	if opts.Hidden <= 0 {
		opts.Hidden = 64
	}
	if opts.SLOMaxMs <= 0 {
		opts.SLOMinMs, opts.SLOMaxMs = 10, 140
	}
	if opts.BwMaxMbps <= 0 {
		opts.BwMinMbps, opts.BwMaxMbps = 5, 400
	}
	if opts.DelayMaxMs <= 0 {
		opts.DelayMinMs, opts.DelayMaxMs = 5, 100
	}
	e := env.New(a, nas.NewCalibratedPredictor(a), opts.Kinds)
	p := policy.New(e, opts.Hidden, opts.Seed)
	space := env.ConstraintSpace{
		Type:   env.LatencySLO,
		SLOMin: opts.SLOMinMs, SLOMax: opts.SLOMaxMs,
		BwMinMbps: opts.BwMinMbps, BwMaxMbps: opts.BwMaxMbps,
		DelayMin: opts.DelayMinMs, DelayMax: opts.DelayMaxMs,
		Points: 10, Remotes: len(opts.Kinds) - 1,
	}
	o := supreme.DefaultOptions()
	o.Steps = opts.Steps
	o.Seed = opts.Seed
	o.CurriculumEvery = opts.Steps / (space.Dims() + 1)
	if err := supreme.New(p, space, o).Run(); err != nil {
		return nil, err
	}
	return p, nil
}

// SavePolicy / LoadPolicy persist trained policies.
func SavePolicy(path string, p *Policy) error { return nn.SaveParams(path, p.Params()) }

// LoadPolicy restores a policy trained for the same arch and kinds; its LSTM
// width is read from the checkpoint.
func LoadPolicy(path string, a *Arch, kinds []DeviceKind) (*Policy, error) {
	return policy.Load(env.New(a, nas.NewCalibratedPredictor(a), kinds), path)
}

// ServeDevice starts a device daemon (NewDaemon at its defaults) for the
// given supernet on addr (use ":0" for an ephemeral port). It returns the
// bound address and a shutdown function.
func ServeDevice(net *Supernet, addr string) (bound string, shutdown func() error, err error) {
	d, err := NewDaemon(DaemonConfig{Net: net, Listen: addr})
	if err != nil {
		return "", nil, err
	}
	return d.Addr, d.Server.Close, nil
}

// Link describes an emulated link to one remote device.
type Link struct {
	Addr          string
	BandwidthMbps float64
	DelayMs       float64
}

// Deployment is a live Murmuration inference service: scheduler + decider +
// strategy cache + monitors over a set of devices, dialed as NewGateway
// dials them.
type Deployment struct{ stack }

// NewDeployment connects the local supernet to remote devices and wires the
// runtime. decider is typically a trained policy's GreedyDecision; pass nil
// to use structured search (env.StructuredSearch; slower per cache miss).
func NewDeployment(local *Supernet, kinds []DeviceKind, links []Link,
	decider func(Constraint) (*Decision, error)) (*Deployment, error) {

	if len(kinds) != len(links)+1 {
		return nil, fmt.Errorf("murmuration: %d kinds for %d links (+1 local)", len(kinds), len(links))
	}
	cfg := DefaultGatewayConfig()
	cfg.Net, cfg.Links, cfg.Decider = local, links, decider
	st, err := newStack(cfg, kinds)
	if err != nil {
		return nil, err
	}
	return &Deployment{*st}, nil
}

// SetSLO sets the active objective.
func (d *Deployment) SetSLO(s SLO) { d.rt.SetSLO(s) }

// SetLinkState sets the link estimate for remote device i (0-based). It is
// read only while the link's monitor holds no sample, that is, when the
// probe NewDeployment made failed.
func (d *Deployment) SetLinkState(i int, bandwidthMbps, delayMs float64) error {
	return d.rt.SetLinkState(i, bandwidthMbps, delayMs)
}

// InferenceResult reports one SLO-aware inference.
type InferenceResult struct {
	Logits     *Tensor
	Decision   *Decision
	Elapsed    time.Duration
	DecideTime time.Duration
	CacheHit   bool
	// RemoteTiles and LocalTiles split the placement's tiles (one per tile
	// per layer) between remote devices and the local one.
	RemoteTiles, LocalTiles int
}

// Infer runs one SLO-aware distributed inference on x (N,C,H,W).
func (d *Deployment) Infer(x *Tensor) (*InferenceResult, error) {
	res, err := d.rt.Infer(x)
	if err != nil {
		return nil, err
	}
	return &InferenceResult{
		Logits:     res.Report.Logits,
		Decision:   res.Decision,
		Elapsed:    res.Report.Elapsed,
		DecideTime: res.DecideTime,
		CacheHit:   res.CacheHit,

		RemoteTiles: res.Report.RemoteTiles,
		LocalTiles:  res.Report.LocalTiles,
	}, nil
}

// Close disconnects from all devices.
func (d *Deployment) Close() error { return d.close() }

// NewInput allocates an input tensor (N,C,H,W).
func NewInput(n, c, h, w int) *Tensor { return tensor.New(n, c, h, w) }
