package supernet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"murmuration/internal/device"
	"murmuration/internal/tensor"
)

func TestCostsTableStructure(t *testing.T) {
	a := DefaultArch()
	cfg := a.MaxConfig()
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// stem + 20 blocks + head
	if len(costs) != 22 {
		t.Fatalf("cost table has %d entries, want 22", len(costs))
	}
	if costs[0].Name != "stem" || costs[len(costs)-1].Name != "head" {
		t.Fatal("cost table must start with stem and end with head")
	}
	for i, lc := range costs {
		if lc.FLOPs <= 0 || lc.WeightBytes <= 0 || lc.OutElems <= 0 {
			t.Fatalf("layer %d (%s) has non-positive cost", i, lc.Name)
		}
		if i > 0 && costs[i].InElems != costs[i-1].OutElems {
			t.Fatalf("layer %d input %d != layer %d output %d",
				i, costs[i].InElems, i-1, costs[i-1].OutElems)
		}
	}
}

func TestQuantReducesWireBytes(t *testing.T) {
	a := DefaultArch()
	cfg := a.MaxConfig()
	cfg.Layers[3].Quant = tensor.Bits8
	costs, _ := a.Costs(cfg)
	full := costs[4] // layer index 3 is cost entry 4 (after stem)
	if full.InWireBytes() != float64(full.InElems) {
		t.Fatalf("8-bit wire bytes should equal element count, got %v for %d elems",
			full.InWireBytes(), full.InElems)
	}
	cfg2 := a.MaxConfig()
	costs2, _ := a.Costs(cfg2)
	if costs2[4].InWireBytes() != float64(costs2[4].InElems*4) {
		t.Fatal("32-bit wire bytes should be 4 bytes per element")
	}
}

func TestLocalPlacementZeroTransfer(t *testing.T) {
	a := DefaultArch()
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	cl := device.AugmentedComputing(100, 10)
	br, err := EstimateLatency(costs, cl, LocalPlacement(costs))
	if err != nil {
		t.Fatal(err)
	}
	if br.TransferSec != 0 {
		t.Fatalf("all-local placement should have zero transfer, got %v", br.TransferSec)
	}
	if br.ComputeSec <= 0 {
		t.Fatal("compute time must be positive")
	}
}

func TestOffloadToGPUReducesLatency(t *testing.T) {
	// Neurosurgeon's core premise: with decent bandwidth, running the heavy
	// suffix on the GPU beats all-local on the Pi.
	a := DefaultArch()
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	cl := device.AugmentedComputing(400, 5)

	local := LocalPlacement(costs)
	brLocal, err := EstimateLatency(costs, cl, local)
	if err != nil {
		t.Fatal(err)
	}

	// All blocks on the GPU (device 1).
	remote := LocalPlacement(costs)
	for k := range remote.Devices {
		for ti := range remote.Devices[k] {
			remote.Devices[k][ti] = 1
		}
	}
	brRemote, err := EstimateLatency(costs, cl, remote)
	if err != nil {
		t.Fatal(err)
	}
	if brRemote.TotalSec >= brLocal.TotalSec {
		t.Fatalf("GPU offload (%v) should beat all-local Pi (%v) at 400 Mb/s",
			brRemote.TotalSec, brLocal.TotalSec)
	}
	if brRemote.TransferSec <= 0 {
		t.Fatal("offload must pay transfer time")
	}
}

func TestLowBandwidthFavorsLocal(t *testing.T) {
	a := DefaultArch()
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	cl := device.AugmentedComputing(1, 100) // 1 Mb/s, 100 ms

	remote := LocalPlacement(costs)
	for k := range remote.Devices {
		for ti := range remote.Devices[k] {
			remote.Devices[k][ti] = 1
		}
	}
	brRemote, _ := EstimateLatency(costs, cl, remote)
	brLocal, _ := EstimateLatency(costs, cl, LocalPlacement(costs))
	if brLocal.TotalSec >= brRemote.TotalSec {
		t.Fatalf("at 1 Mb/s local (%v) should beat offload (%v)",
			brLocal.TotalSec, brRemote.TotalSec)
	}
}

func TestSpatialPartitionSpeedsUpSwarm(t *testing.T) {
	// On a swarm with fast links, a 2x2 spatial partition over 4 devices
	// should beat single-device execution (Fig. 17's premise).
	a := DefaultArch()
	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = Partition{2, 2}
		cfg.Layers[i].Quant = tensor.Bits8
	}
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := device.DeviceSwarm(5, 1000, 2)
	p := LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = ti % 4 // devices 0-3
		}
	}
	brPart, err := EstimateLatency(costs, cl, p)
	if err != nil {
		t.Fatal(err)
	}
	cfgLocal := a.MaxConfig()
	costsLocal, _ := a.Costs(cfgLocal)
	brLocal, _ := EstimateLatency(costsLocal, cl, LocalPlacement(costsLocal))
	if brPart.TotalSec >= brLocal.TotalSec {
		t.Fatalf("2x2 partition on swarm (%v) should beat single Pi (%v)",
			brPart.TotalSec, brLocal.TotalSec)
	}
}

func TestPlacementValidation(t *testing.T) {
	a := TinyArch(4)
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	cl := device.DeviceSwarm(2, 100, 10)

	p := LocalPlacement(costs)
	p.Devices[0][0] = 5 // out of range
	if _, err := EstimateLatency(costs, cl, p); err == nil {
		t.Fatal("out-of-range device accepted")
	}

	p2 := LocalPlacement(costs)
	p2.Devices = p2.Devices[:len(p2.Devices)-1]
	if _, err := EstimateLatency(costs, cl, p2); err == nil {
		t.Fatal("missing layer accepted")
	}

	cfg2 := a.MaxConfig()
	cfg2.Layers[0].Partition = Partition{2, 2}
	costs2, _ := a.Costs(cfg2)
	p3 := LocalPlacement(costs) // built from the 1x1 config
	if err := p3.Validate(costs2, cl.N()); err == nil {
		t.Fatal("tile-count mismatch accepted")
	}
}

// Property: latency is monotone non-increasing in bandwidth and
// non-decreasing in delay, for a random remote-heavy placement.
func TestLatencyMonotonicityProperty(t *testing.T) {
	a := TinyArch(4)
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, bwRaw, delayRaw uint16) bool {
		cfg := a.RandomConfig(rand.New(rand.NewSource(seed)))
		costs, err := a.Costs(cfg)
		if err != nil {
			return false
		}
		bw := float64(bwRaw%400) + 5
		delay := float64(delayRaw % 100)
		p := LocalPlacement(costs)
		for k := range p.Devices {
			for ti := range p.Devices[k] {
				p.Devices[k][ti] = rng.Intn(2)
			}
		}
		cl1 := device.AugmentedComputing(bw, delay)
		cl2 := device.AugmentedComputing(bw*2, delay)
		cl3 := device.AugmentedComputing(bw, delay+50)
		b1, e1 := EstimateLatency(costs, cl1, p)
		b2, e2 := EstimateLatency(costs, cl2, p)
		b3, e3 := EstimateLatency(costs, cl3, p)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		return b2.TotalSec <= b1.TotalSec+1e-12 && b3.TotalSec >= b1.TotalSec-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMisalignedStrideForcesRegather: under one 2x2 grid throughout, tiles
// still fail to line up where a stride-2 block halves an odd split. At 160 px
// the last stage's first block reads a 10x10 map as 6+4 rows where the
// previous block wrote 5+5, so the model must charge a gather and re-scatter
// there and nowhere else after the first block — and charge what the wire
// carries: tiles leave at the layer's bitwidth and come back at 32 bits.
func TestMisalignedStrideForcesRegather(t *testing.T) {
	a := DefaultArch()
	cfg := a.MinConfig() // 160 px, 8-bit, two blocks a stage
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = Partition{2, 2}
	}
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var regather []string
	for _, lc := range costs {
		if lc.Regather {
			regather = append(regather, lc.Name)
		}
	}
	if len(regather) != 2 || regather[0] != "stage0.block0" || regather[1] != "stage4.block0" {
		t.Fatalf("regather at %v, want the first block (1x1 stem before it) and stage4.block0 (6+4 against 5+5)", regather)
	}

	// An even split is not enough for a strided layer: 12 rows split 6+6,
	// a stride-2 block reads 3+3 output rows, 6+6 input rows — aligned; 10
	// rows split 5+5 but are read 6+4.
	if !tilesCoincide(12, 12, 2, Partition{2, 2}) || tilesCoincide(10, 10, 2, Partition{2, 2}) {
		t.Fatal("tilesCoincide: want 12x12 aligned and 10x10 misaligned at stride 2 under 2x2")
	}
	if !tilesCoincide(10, 10, 1, Partition{2, 2}) || !tilesCoincide(10, 10, 2, Partition{1, 1}) {
		t.Fatal("tilesCoincide: stride 1 and the 1x1 grid always line up")
	}

	// Everything on device 1 over a link with no delay: the transfer time is
	// bytes over bandwidth, summed over the two scatters (8-bit) and the two
	// gathers (32-bit).
	p := LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = 1
		}
	}
	const mbps = 100.0
	br, err := EstimateLatency(costs, device.NewCluster([]device.Kind{device.RaspberryPi4, device.RaspberryPi4}, mbps, 0), p)
	if err != nil {
		t.Fatal(err)
	}
	first, entry := costs[1], costs[9] // stage0.block0, stage4.block0
	wire := float64(first.InElems) + 4*float64(entry.InElems) + float64(entry.InElems) + 4*float64(costs[len(costs)-1].InElems)
	if want := wire / (mbps * 1e6 / 8); math.Abs(br.TransferSec-want) > 1e-12 {
		t.Fatalf("TransferSec = %v, want %v (two 8-bit scatters, two 32-bit gathers)", br.TransferSec, want)
	}
}
