package supernet

import (
	"fmt"
	"sync/atomic"

	"murmuration/internal/device"
	"murmuration/internal/tensor"
)

// LayerCost summarizes one decision layer (an MBConv block, or the fixed
// stem/head) for the latency model: compute, memory traffic, and the size of
// its input/output activations.
type LayerCost struct {
	Name string
	// FLOPs is the total floating-point operation count of the layer.
	FLOPs float64
	// MemBytes is the memory traffic (weights + activations) for the
	// roofline model.
	MemBytes float64
	// WeightBytes is the parameter footprint of the layer.
	WeightBytes float64
	// InElems / OutElems are activation element counts entering/leaving.
	InElems, OutElems int
	// Partition is the spatial grid this layer executes under.
	Partition Partition
	// Quant is the bitwidth applied to this layer's *input* feature map
	// when it crosses a device boundary.
	Quant tensor.Bitwidth
	// Partitionable marks layers the placement may spread across devices
	// (MBConv blocks). The stem and head always run on the owner device.
	Partitionable bool
	// Regather marks a layer whose input tiles are not the rectangles the
	// previous layer's output tiles cover: the grid changed, or a stride
	// splits an odd extent differently (10 rows arrive as 5+5, but a stride-2
	// block under 2x2 reads them as 6+4). Its input must be assembled on
	// the local device and cut again; every other layer can consume a tile
	// where its predecessor left it. This is the one alignment predicate: the
	// scheduler breaks its fused runs where EstimateLatency charges a gather
	// and re-scatter. The zero value (aligned) is right for 1x1 chains.
	Regather bool
}

// InWireBytes returns the wire size of this layer's full input under its
// quantization setting.
func (lc LayerCost) InWireBytes() float64 {
	return float64(lc.InElems * lc.Quant.BytesPerElement())
}

// Costs computes the per-layer cost table of config c under search space a.
// The table contains: stem, one entry per active MBConv layer, and the
// head (final conv + global pool + classifier) as the last entry.
func (a *Arch) Costs(c *Config) ([]LayerCost, error) {
	if err := a.Validate(c); err != nil {
		return nil, err
	}
	var out []LayerCost
	r := c.Resolution
	h, w := r, r
	inC := a.InChannels

	// Stem: 3x3 stride-2 conv + BN + hswish.
	oh, ow := h/2, w/2
	stemFlops := float64(2*oh*ow) * float64(inC*9*a.StemChannels)
	stemW := float64(inC*9*a.StemChannels+2*a.StemChannels) * 4
	out = append(out, LayerCost{
		Name:        "stem",
		FLOPs:       stemFlops,
		MemBytes:    stemW + float64(h*w*inC+oh*ow*a.StemChannels)*4,
		WeightBytes: stemW,
		InElems:     h * w * inC,
		OutElems:    oh * ow * a.StemChannels,
		Partition:   Partition{1, 1},
		Quant:       tensor.Bits32,
	})
	h, w = oh, ow
	cin := a.StemChannels
	prevGrid := Partition{1, 1}

	li := 0
	for si, st := range a.Stages {
		d := c.Depths[si]
		for i := 0; i < d; i++ {
			ls := c.Layers[li]
			li++
			stride := 1
			if i == 0 {
				stride = st.Stride
			}
			oh, ow := h/stride, w/stride
			hidden := cin * ls.Expand
			cout := st.Width

			// expand 1x1 → depthwise kxk → (SE) → project 1x1
			fl := float64(2*h*w) * float64(cin*hidden)                   // expand
			fl += float64(2*oh*ow) * float64(hidden*ls.Kernel*ls.Kernel) // depthwise
			if st.SE {
				se := hidden / 4
				if se < 1 {
					se = 1
				}
				fl += float64(2*hidden*se*2) + float64(oh*ow*hidden) // squeeze-excite + rescale
			}
			fl += float64(2*oh*ow) * float64(hidden*cout) // project

			wBytes := float64(cin*hidden+hidden*ls.Kernel*ls.Kernel+hidden*cout) * 4
			if st.SE {
				se := hidden / 4
				if se < 1 {
					se = 1
				}
				wBytes += float64(2*hidden*se) * 4
			}
			actBytes := float64(h*w*cin+oh*ow*cout+h*w*hidden+oh*ow*hidden) * 4

			out = append(out, LayerCost{
				Name:          fmt.Sprintf("stage%d.block%d", si, i),
				FLOPs:         fl,
				MemBytes:      wBytes + actBytes,
				WeightBytes:   wBytes,
				InElems:       h * w * cin,
				OutElems:      oh * ow * cout,
				Partition:     ls.Partition,
				Quant:         ls.Quant,
				Partitionable: true,
				Regather:      ls.Partition != prevGrid || !tilesCoincide(h, w, stride, ls.Partition),
			})
			prevGrid = ls.Partition
			h, w = oh, ow
			cin = cout
		}
	}

	// Head: 1x1 conv to HeadChannels, global pool, classifier.
	headFlops := float64(2*h*w)*float64(cin*a.HeadChannels) +
		float64(2*a.HeadChannels*a.NumClasses)
	headW := float64(cin*a.HeadChannels+a.HeadChannels*a.NumClasses) * 4
	out = append(out, LayerCost{
		Name:        "head",
		FLOPs:       headFlops,
		MemBytes:    headW + float64(h*w*cin+a.HeadChannels+a.NumClasses)*4,
		WeightBytes: headW,
		InElems:     h * w * cin,
		OutElems:    a.NumClasses,
		Partition:   Partition{1, 1},
		Quant:       tensor.Bits32,
	})
	return out, nil
}

// tilesCoincide reports whether a layer reading an (h, w) map at stride under
// grid cuts it into the same rectangles a previous layer under the same grid
// wrote it in. Output tilings split rows and columns as evenly as possible;
// a strided layer maps its own output split back through the stride, which
// differs whenever an extent does not divide by grid x stride.
func tilesCoincide(h, w, stride int, grid Partition) bool {
	same := func(n, g int) bool {
		wrote, err1 := splitSizes(n, g)
		reads, err2 := splitSizes(n/stride, g)
		if err1 != nil || err2 != nil || n%stride != 0 {
			return false
		}
		for i := range wrote {
			if wrote[i] != reads[i]*stride {
				return false
			}
		}
		return true
	}
	return same(h, grid.Gy) && same(w, grid.Gx)
}

// TotalFLOPs sums the cost table's FLOPs.
func TotalFLOPs(costs []LayerCost) float64 {
	var s float64
	for _, c := range costs {
		s += c.FLOPs
	}
	return s
}

// TotalWeightBytes sums the cost table's parameter footprint.
func TotalWeightBytes(costs []LayerCost) float64 {
	var s float64
	for _, c := range costs {
		s += c.WeightBytes
	}
	return s
}

// Decision is a joint submodel + placement choice — the unit Murmuration's
// policy outputs and the runtime executes. Once executed, a decision is not
// changed in place: an executor keeps what it compiled the decision to with
// it (Compiled), as long as the decision lives — a strategy cache entry, a
// pinned decision — and no longer.
type Decision struct {
	Config    *Config
	Placement *Placement

	compiled atomic.Value
}

// Compiled returns what an executor last compiled d to (SetCompiled), or nil.
func (d *Decision) Compiled() any { return d.compiled.Load() }

// SetCompiled keeps an executor's compiled form of d with d, for the next run
// of d to reuse. Every value stored must be of one type.
func (d *Decision) SetCompiled(v any) { d.compiled.Store(v) }

// Placement assigns each tile of each partitionable layer to a device index
// within a cluster. Devices[k] has exactly Partition.NumTiles() entries for
// decision layer k (indexing only the partitionable layers, in order).
type Placement struct {
	Devices [][]int
}

// LocalPlacement places every tile of every layer on device 0.
func LocalPlacement(costs []LayerCost) *Placement {
	p := &Placement{}
	for _, lc := range costs {
		if !lc.Partitionable {
			continue
		}
		p.Devices = append(p.Devices, make([]int, lc.Partition.NumTiles()))
	}
	return p
}

// Validate checks the placement against a cost table and cluster size.
func (p *Placement) Validate(costs []LayerCost, n int) error {
	k := 0
	for _, lc := range costs {
		if !lc.Partitionable {
			continue
		}
		if k >= len(p.Devices) {
			return fmt.Errorf("supernet: placement missing layer %d", k)
		}
		if len(p.Devices[k]) != lc.Partition.NumTiles() {
			return fmt.Errorf("supernet: layer %d has %d tiles, placement has %d",
				k, lc.Partition.NumTiles(), len(p.Devices[k]))
		}
		for _, d := range p.Devices[k] {
			if d < 0 || d >= n {
				return fmt.Errorf("supernet: device %d out of range [0,%d)", d, n)
			}
		}
		k++
	}
	if k != len(p.Devices) {
		return fmt.Errorf("supernet: placement has %d layers, costs have %d", len(p.Devices), k)
	}
	return nil
}

// LatencyBreakdown itemizes the estimated inference latency.
type LatencyBreakdown struct {
	ComputeSec  float64
	TransferSec float64
	TotalSec    float64
}

// EstimateLatency predicts end-to-end inference latency (seconds) for
// executing the cost table on the cluster under the placement.
//
// Model: the stem runs on the local device (0). For each partitionable
// layer, input tiles move from their current owner to the assigned device
// (star topology — remote↔remote hops relay through the local device). The
// network follows the paper's testbed (a switch with per-link `tc` shaping):
// traffic on *distinct* links proceeds in parallel, traffic sharing a link
// serializes, so a transfer phase costs the maximum over links of
// (link bytes / link bandwidth + link delay). Tile computations run in
// parallel across devices (serially per device). A layer marked Regather
// forces a gather to the local device followed by a re-scatter. After the
// last block, tiles gather back to the local device, which runs the head (the
// paper's "centrally executed fully connected layers"). A tile leaves for a
// device at its layer's bitwidth and comes back at 32 bits, as on the wire.
func EstimateLatency(costs []LayerCost, cluster *device.Cluster, p *Placement) (LatencyBreakdown, error) {
	if err := p.Validate(costs, cluster.N()); err != nil {
		return LatencyBreakdown{}, err
	}
	var br LatencyBreakdown

	// ownership: device per tile of the *previous* layer's output grid.
	owners := []int{0}
	prevOutElems := 0

	k := 0 // partitionable-layer index
	for _, lc := range costs {
		if !lc.Partitionable {
			// Stem and head run on the local device; any remote tiles
			// must be gathered first.
			ph := newPhase(cluster)
			gatherBytes := gatherBytesPerOwner(owners, prevOutElems)
			for _, o := range owners {
				ph.add(o, gatherBytes)
			}
			br.TransferSec += ph.time()
			br.ComputeSec += cluster.Devices[0].Profile.LayerTime(lc.FLOPs, lc.MemBytes)
			owners = []int{0}
			prevOutElems = lc.OutElems
			continue
		}

		assign := p.Devices[k]
		k++
		grid := lc.Partition
		tiles := grid.NumTiles()
		tileInBytes := lc.InWireBytes() / float64(tiles)

		ph := newPhase(cluster)
		gatherBytes := gatherBytesPerOwner(owners, prevOutElems)
		if !lc.Regather && tiles == len(owners) {
			// Tile-aligned: each tile moves only if its owner changes
			// (relayed through the local device: both links are charged).
			for t := 0; t < tiles; t++ {
				if owners[t] != assign[t] {
					ph.add(owners[t], gatherBytes)
					ph.add(assign[t], tileInBytes)
				}
			}
		} else {
			// Misaligned: gather previous output to local, then scatter
			// this layer's input tiles to their devices.
			for _, o := range owners {
				ph.add(o, gatherBytes)
			}
			br.TransferSec += ph.time()
			ph = newPhase(cluster)
			for t := 0; t < tiles; t++ {
				ph.add(assign[t], tileInBytes)
			}
		}
		br.TransferSec += ph.time()

		// Per-device serial compute, devices in parallel.
		perDev := make(map[int]float64)
		tileFlops := lc.FLOPs / float64(tiles)
		tileMem := lc.MemBytes / float64(tiles)
		for t := 0; t < tiles; t++ {
			d := assign[t]
			perDev[d] += cluster.Devices[d].Profile.LayerTime(tileFlops, tileMem)
		}
		var maxComp float64
		for _, v := range perDev {
			if v > maxComp {
				maxComp = v
			}
		}
		br.ComputeSec += maxComp

		owners = append([]int(nil), assign...)
		prevOutElems = lc.OutElems
	}

	br.TotalSec = br.ComputeSec + br.TransferSec
	return br, nil
}

// phase accumulates per-link traffic for one synchronized transfer phase and
// reports its duration: max over links of (bytes/bandwidth + delay), with
// device 0 (local) free.
type phase struct {
	cluster *device.Cluster
	bytes   map[int]float64
}

func newPhase(cluster *device.Cluster) *phase {
	return &phase{cluster: cluster, bytes: make(map[int]float64)}
}

// add charges `bytes` to device d's link (no-op for the local device).
func (p *phase) add(d int, bytes float64) {
	if d != 0 && bytes > 0 {
		p.bytes[d] += bytes
	}
}

// time returns the phase duration.
func (p *phase) time() float64 {
	var worst float64
	for d, b := range p.bytes {
		if t := p.cluster.Devices[d].TransferTime(b); t > worst {
			worst = t
		}
	}
	return worst
}

// gatherBytesPerOwner is the wire size of one owner's tile when collecting
// totalElems split evenly among owners. Results always return at 32 bits.
func gatherBytesPerOwner(owners []int, totalElems int) float64 {
	if totalElems == 0 || len(owners) == 0 {
		return 0
	}
	return float64(totalElems*tensor.Bits32.BytesPerElement()) / float64(len(owners))
}
