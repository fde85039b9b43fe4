// Package device models the heterogeneous edge hardware of the paper's two
// evaluation scenarios: Raspberry Pi 4 nodes and a Ryzen 5500 + GTX 1080
// desktop. A Profile turns per-layer FLOP and byte counts into execution
// time estimates; the same profiles scale the real in-process executor so
// locally measured numbers land in the paper's regime.
package device

import "fmt"

// Kind identifies a device class used in the evaluation.
type Kind int

// Device kinds.
const (
	RaspberryPi4 Kind = iota
	GPUDesktop        // AMD Ryzen 5500 + Nvidia GTX 1080
)

// String returns the human-readable device name.
func (k Kind) String() string {
	switch k {
	case RaspberryPi4:
		return "raspberry-pi-4"
	case GPUDesktop:
		return "ryzen5500-gtx1080"
	default:
		return fmt.Sprintf("device(%d)", int(k))
	}
}

// Profile captures the compute capability of one device. Throughput numbers
// are *effective single-image serving* rates — what a batch-1 request
// achieves end to end, including framework overhead and host↔accelerator
// copies — not peak silicon numbers. They are calibrated jointly against
// published batch-1 CNN latencies and the paper's observed feasibility
// frontier (Fig. 13: MobileNetV3/ResNet50/Inception can meet a 140 ms SLO
// through the GPU desktop under good networks, DenseNet161 and
// ResNeXt101-32x8d never can):
//
//   - RPi4: ~4 GFLOP/s effective NEON fp32 conv throughput (MobileNetV3 ≈
//     115 ms, ResNet50 ≈ 2 s — matching measured Pi 4 numbers), ~2.5 GB/s
//     usable LPDDR4 bandwidth, ~0.3 ms per-layer dispatch overhead.
//   - GTX 1080 desktop: ~120 GFLOP/s effective batch-1 serving throughput
//     (ResNet50 ≈ 73 ms, DenseNet161 ≈ 137 ms, ResNeXt101 ≈ 280 ms
//     end-to-end), ~25 GB/s effective bandwidth, ~0.3 ms per-layer launch
//     overhead.
type Profile struct {
	Kind Kind
	// FlopsPerSec is effective floating-point throughput.
	FlopsPerSec float64
	// MemBytesPerSec is effective memory bandwidth.
	MemBytesPerSec float64
	// LayerOverheadSec is fixed per-layer dispatch/launch overhead.
	LayerOverheadSec float64
}

// NewProfile returns the calibrated profile for a device kind.
func NewProfile(kind Kind) Profile {
	switch kind {
	case GPUDesktop:
		return Profile{
			Kind:             kind,
			FlopsPerSec:      1.2e11,
			MemBytesPerSec:   25e9,
			LayerOverheadSec: 0.0003,
		}
	default:
		return Profile{
			Kind:             RaspberryPi4,
			FlopsPerSec:      4e9,
			MemBytesPerSec:   2.5e9,
			LayerOverheadSec: 0.0003,
		}
	}
}

// LayerTime estimates the execution time in seconds of a layer with the
// given FLOP count and total memory traffic (activations + weights read +
// output written). The layer is limited by whichever of compute or memory
// is slower (roofline), plus fixed overhead.
func (p Profile) LayerTime(flops, memBytes float64) float64 {
	tc := flops / p.FlopsPerSec
	tm := memBytes / p.MemBytesPerSec
	t := tc
	if tm > t {
		t = tm
	}
	return t + p.LayerOverheadSec
}

// Device is one participant in a deployment: a profile plus its network
// attributes as seen from the local (source) device. The local device has
// index 0 by convention, with zero delay and infinite bandwidth to itself.
type Device struct {
	ID      int
	Profile Profile
	// BandwidthMbps is the available bandwidth of the link from the local
	// device, in megabits per second.
	BandwidthMbps float64
	// DelayMs is the one-way network delay from the local device, in
	// milliseconds.
	DelayMs float64
}

// TransferTime returns the time in seconds to move `bytes` from the local
// device to this device (or back): serialization at the link bandwidth plus
// propagation delay. Transfers to the local device itself are free.
func (d Device) TransferTime(bytes float64) float64 {
	if d.ID == 0 {
		return 0
	}
	bw := d.BandwidthMbps * 1e6 / 8 // bytes per second
	if bw <= 0 {
		return 1e9 // unreachable device: effectively infinite
	}
	return bytes/bw + d.DelayMs/1000
}

// Cluster is an ordered set of devices; index 0 is the local device.
type Cluster struct {
	Devices []Device
}

// NewCluster builds a cluster from profiles. Bandwidth/delay start at the
// provided defaults and can be updated per device (e.g. by the monitor).
func NewCluster(kinds []Kind, bandwidthMbps, delayMs float64) *Cluster {
	c := &Cluster{}
	for i, k := range kinds {
		d := Device{ID: i, Profile: NewProfile(k), BandwidthMbps: bandwidthMbps, DelayMs: delayMs}
		if i == 0 {
			d.DelayMs = 0
		}
		c.Devices = append(c.Devices, d)
	}
	return c
}

// N returns the number of devices.
func (c *Cluster) N() int { return len(c.Devices) }

// Local returns the local device.
func (c *Cluster) Local() Device { return c.Devices[0] }

// SetLink updates the network attributes of device i (no-op for i == 0).
func (c *Cluster) SetLink(i int, bandwidthMbps, delayMs float64) {
	if i <= 0 || i >= len(c.Devices) {
		return
	}
	c.Devices[i].BandwidthMbps = bandwidthMbps
	c.Devices[i].DelayMs = delayMs
}

// Clone deep-copies the cluster.
func (c *Cluster) Clone() *Cluster {
	return &Cluster{Devices: append([]Device(nil), c.Devices...)}
}

// AugmentedComputing returns the paper's first scenario: one RPi4 local
// device paired with a GPU desktop.
func AugmentedComputing(bandwidthMbps, delayMs float64) *Cluster {
	return NewCluster([]Kind{RaspberryPi4, GPUDesktop}, bandwidthMbps, delayMs)
}

// DeviceSwarm returns the paper's second scenario: n RPi4 devices (1 local +
// n-1 remote). The paper uses n = 5.
func DeviceSwarm(n int, bandwidthMbps, delayMs float64) *Cluster {
	kinds := make([]Kind, n)
	for i := range kinds {
		kinds[i] = RaspberryPi4
	}
	return NewCluster(kinds, bandwidthMbps, delayMs)
}
