// Package env implements Murmuration's goal-conditioned multi-task RL
// environment (paper §4.2): the goal is a user SLO (inference latency or
// accuracy), tasks are network conditions (per-device bandwidth and delay),
// and an episode is the sequential construction of a joint decision — a
// supernet submodel config plus a partition/placement strategy — one action
// per DNN layer setting and per partition device selection.
//
// Reward follows Eq. (2)/(3): zero when the SLO is violated, otherwise a
// scaled accuracy (latency SLO) or scaled latency headroom (accuracy SLO).
package env

import (
	"fmt"
	"math/rand"

	"murmuration/internal/device"
	"murmuration/internal/nas"
	"murmuration/internal/supernet"
)

// SLOType selects which objective is constrained.
type SLOType int

// SLO types.
const (
	LatencySLO SLOType = iota
	AccuracySLO
)

// Constraint is one (goal, task) pair: the SLO plus the network conditions
// of every remote device.
type Constraint struct {
	Type SLOType
	// LatencyMs is the latency SLO (used when Type == LatencySLO).
	LatencyMs float64
	// AccuracyPct is the accuracy SLO (used when Type == AccuracySLO).
	AccuracyPct float64
	// BandwidthMbps[i] / DelayMs[i] describe remote device i+1 (device 0 is
	// local and has no link).
	BandwidthMbps []float64
	DelayMs       []float64
}

// Decision is the joint output of the policy: a submodel and its placement.
// It aliases supernet.Decision so runtime components can consume policy
// output directly.
type Decision = supernet.Decision

// Outcome is the evaluated result of a decision under a constraint.
type Outcome struct {
	Reward      float64
	AccuracyPct float64
	LatencyMs   float64
	SLOMet      bool
}

// Env evaluates decisions and defines the action schedule.
type Env struct {
	Arch      *supernet.Arch
	Predictor *nas.CalibratedPredictor
	// Kinds are the device types of the cluster (index 0 = local).
	Kinds []device.Kind

	// Reward hyperparameters (Eq. 2/3). With the calibrated predictor's
	// 72–78.5 % accuracy range, Alpha/Beta place the max reward ≈ 1.6.
	Alpha float64
	Beta  float64
	// LatencyRefMs normalizes latency in the accuracy-SLO reward.
	LatencyRefMs float64
}

// New creates an environment over a search space and device set.
func New(a *supernet.Arch, pred *nas.CalibratedPredictor, kinds []device.Kind) *Env {
	return &Env{
		Arch:         a,
		Predictor:    pred,
		Kinds:        kinds,
		Alpha:        0.2,
		Beta:         14.1,
		LatencyRefMs: 2000,
	}
}

// NumDevices returns the cluster size.
func (e *Env) NumDevices() int { return len(e.Kinds) }

// Cluster materializes a device cluster with the constraint's link state.
func (e *Env) Cluster(c Constraint) (*device.Cluster, error) {
	if len(c.BandwidthMbps) != len(e.Kinds)-1 || len(c.DelayMs) != len(e.Kinds)-1 {
		return nil, fmt.Errorf("env: constraint has %d/%d links for %d remote devices",
			len(c.BandwidthMbps), len(c.DelayMs), len(e.Kinds)-1)
	}
	cl := device.NewCluster(e.Kinds, 0, 0)
	for i := 1; i < cl.N(); i++ {
		cl.SetLink(i, c.BandwidthMbps[i-1], c.DelayMs[i-1])
	}
	return cl, nil
}

// Evaluate scores a decision under a constraint using the cost model and the
// accuracy predictor.
func (e *Env) Evaluate(c Constraint, d *Decision) (Outcome, error) {
	cl, err := e.Cluster(c)
	if err != nil {
		return Outcome{}, err
	}
	costs, err := e.Arch.Costs(d.Config)
	if err != nil {
		return Outcome{}, err
	}
	br, err := supernet.EstimateLatency(costs, cl, d.Placement)
	if err != nil {
		return Outcome{}, err
	}
	latMs := br.TotalSec * 1000
	acc := e.Predictor.Accuracy(d.Config)

	out := Outcome{AccuracyPct: acc, LatencyMs: latMs}
	out.Reward, out.SLOMet = e.rewardFor(c, acc, latMs)
	return out, nil
}

// rewardFor scores an (accuracy, latency) pair under a constraint: the
// Eq. (2)/(3) reward.
func (e *Env) rewardFor(c Constraint, accuracyPct, latencyMs float64) (reward float64, sloMet bool) {
	switch c.Type {
	case LatencySLO:
		if latencyMs <= c.LatencyMs {
			sloMet = true
			reward = e.Alpha*accuracyPct - e.Beta
			if reward < 0 {
				reward = 0.01 // met the SLO: strictly better than violating it
			}
		}
	case AccuracySLO:
		if accuracyPct >= c.AccuracyPct {
			sloMet = true
			reward = 1.6 * (1 - latencyMs/e.LatencyRefMs)
			if reward < 0.01 {
				reward = 0.01
			}
		}
	}
	return reward, sloMet
}

// ConstraintSpace is the discretized training grid of §6.1.1: 10 points per
// metric (SLO, each bandwidth, each delay).
type ConstraintSpace struct {
	Type      SLOType
	SLOMin    float64 // ms or %
	SLOMax    float64
	BwMinMbps float64
	BwMaxMbps float64
	DelayMin  float64 // ms
	DelayMax  float64
	Points    int // grid points per dimension (paper: 10)
	Remotes   int // number of remote devices
}

// Grid returns the k-th of Points evenly spaced values in [lo, hi].
func gridValue(lo, hi float64, k, points int) float64 {
	if points <= 1 {
		return lo
	}
	return lo + (hi-lo)*float64(k)/float64(points-1)
}

// SLOValue returns grid point k of the SLO dimension.
func (s ConstraintSpace) SLOValue(k int) float64 {
	return gridValue(s.SLOMin, s.SLOMax, k, s.Points)
}

// BwValue returns grid point k of a bandwidth dimension.
func (s ConstraintSpace) BwValue(k int) float64 {
	return gridValue(s.BwMinMbps, s.BwMaxMbps, k, s.Points)
}

// DelayValue returns grid point k of a delay dimension.
func (s ConstraintSpace) DelayValue(k int) float64 {
	return gridValue(s.DelayMin, s.DelayMax, k, s.Points)
}

// Sample draws a uniform random grid constraint.
func (s ConstraintSpace) Sample(rng *rand.Rand) Constraint {
	c := Constraint{Type: s.Type}
	slo := s.SLOValue(rng.Intn(s.Points))
	if s.Type == LatencySLO {
		c.LatencyMs = slo
	} else {
		c.AccuracyPct = slo
	}
	for i := 0; i < s.Remotes; i++ {
		c.BandwidthMbps = append(c.BandwidthMbps, s.BwValue(rng.Intn(s.Points)))
		c.DelayMs = append(c.DelayMs, s.DelayValue(rng.Intn(s.Points)))
	}
	return c
}

// SampleCurriculum draws a constraint varying only the first `open`
// dimensions (SLO first, then device 1 bandwidth, device 1 delay, device 2
// bandwidth, ...); the rest are pinned to their most relaxed value. This is
// SUPREME's curriculum (§6.1.1: "we start with varying SLOs and device 1
// bandwidth, then we slowly add device 1 delay, ...").
func (s ConstraintSpace) SampleCurriculum(rng *rand.Rand, open int) Constraint {
	c := Constraint{Type: s.Type}
	dim := 0
	pick := func(lo, hi float64, relaxedHi bool) float64 {
		dim++
		if dim <= open {
			return gridValue(lo, hi, rng.Intn(s.Points), s.Points)
		}
		if relaxedHi {
			return hi
		}
		return lo
	}
	slo := pick(s.SLOMin, s.SLOMax, true) // relaxed = loosest SLO
	if s.Type == LatencySLO {
		c.LatencyMs = slo
	} else {
		// For accuracy SLOs the *low* end is relaxed.
		dim--
		c.AccuracyPct = func() float64 {
			dim++
			if dim <= open {
				return gridValue(s.SLOMin, s.SLOMax, rng.Intn(s.Points), s.Points)
			}
			return s.SLOMin
		}()
	}
	for i := 0; i < s.Remotes; i++ {
		c.BandwidthMbps = append(c.BandwidthMbps, pick(s.BwMinMbps, s.BwMaxMbps, true))
		c.DelayMs = append(c.DelayMs, pick(s.DelayMin, s.DelayMax, false))
	}
	return c
}

// Dims returns the constraint dimensionality (1 SLO + 2 per remote).
func (s ConstraintSpace) Dims() int { return 1 + 2*s.Remotes }

// ValidationSet returns an evenly spread set of constraints for measuring
// average reward and SLO compliance (paper: "evenly distributed points in
// the SLO and network conditions space").
func (s ConstraintSpace) ValidationSet(n int, seed int64) []Constraint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Constraint, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}
