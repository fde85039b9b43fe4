package runtime

import "murmuration/internal/supernet"

// plan is a decision compiled for execution on one supernet: validated, its
// blocks resolved to where they sit in the supernet, cut into segments, and
// each segment's tile geometry cut. All of it follows from the decision, so a
// decision is compiled once — the first time a scheduler runs it — and its
// plan is kept with it (supernet.Decision.Compiled): a decision the strategy
// cache serves again runs the plan it already has, and the plan goes when the
// decision does. What changes from run to run stays out of it: the batch
// size, and where the health gate redirects a run.
type plan struct {
	// What the plan was compiled from. A run with another Arch, or after the
	// decision's Config or Placement was swapped, compiles again; maxDev, the
	// highest device the placement names, is checked against each
	// scheduler's cluster, which it must fit as Placement.Validate says.
	arch      *supernet.Arch
	cfg       *supernet.Config
	placement *supernet.Placement
	maxDev    int
	segs      []segment
}

// segment is a maximal stretch of blocks whose tiles line up end to end: it
// breaks exactly where the cost model charges a gather and re-scatter.
type segment struct {
	blocks []blockRef
	// assign[k][t] is the device of tile t at the segment's block k.
	assign [][]int
	// tiles are the grid's tiles in row-major order.
	tiles []tileRect
	// outC is the segment's output width, down its total stride.
	outC, down int
}

// tileRect is where one tile is cut from a segment's input and where its
// output goes in the segment's output.
type tileRect struct {
	y0, x0, h, w int
	oy0, ox0     int
}

// fits reports whether p is d's plan on arch in a cluster of n devices.
func (p *plan) fits(arch *supernet.Arch, d *supernet.Decision, n int) bool {
	return p.arch == arch && p.cfg == d.Config && p.placement == d.Placement && p.maxDev < n
}

// compilePlan compiles d for arch in a cluster of n devices.
func compilePlan(arch *supernet.Arch, d *supernet.Decision, n int) (*plan, error) {
	cfg := d.Config
	costs, err := arch.Costs(cfg) // validates cfg
	if err != nil {
		return nil, err
	}
	if err := d.Placement.Validate(costs, n); err != nil {
		return nil, err
	}
	p := &plan{arch: arch, cfg: cfg, placement: d.Placement}
	for _, row := range d.Placement.Devices {
		for _, dev := range row {
			p.maxDev = max(p.maxDev, dev)
		}
	}
	blocks := make([]blockRef, cfg.NumLayers())
	for layer := range blocks {
		stage, index, _, err := arch.BlockAt(cfg, layer)
		if err != nil {
			return nil, err
		}
		blocks[layer] = blockRef{stage: stage, index: index, ls: cfg.Layers[layer]}
	}
	// The first segment cuts the stem's output; each segment ends where the
	// next block must be gathered first (costs[0] is the stem).
	h := supernet.StemOutSize(cfg.Resolution)
	w := h
	for first := 0; first < len(blocks); {
		end := first + 1
		for end < len(blocks) && !costs[1+end].Regather {
			end++
		}
		seg, err := compileSegment(arch, blocks[first:end], d.Placement.Devices[first:end], h, w)
		if err != nil {
			return nil, err
		}
		p.segs = append(p.segs, seg)
		h, w = h/seg.down, w/seg.down
		first = end
	}
	return p, nil
}

// compileSegment cuts the tiles of a segment whose input map is h×w.
func compileSegment(arch *supernet.Arch, blocks []blockRef, assign [][]int, h, w int) (segment, error) {
	grid := blocks[0].ls.Partition
	y0s, x0s, ths, tws, err := supernet.TileSplit(h, w, grid, runStride(arch, blocks[:1]))
	if err != nil {
		return segment{}, err
	}
	seg := segment{blocks: blocks, assign: assign, tiles: make([]tileRect, len(y0s)),
		outC: arch.Stages[blocks[len(blocks)-1].stage].Width, down: runStride(arch, blocks)}
	// The tiles tile the output map the way the last block wrote them.
	oy0s, ox0s, _, _, err := supernet.TileSplit(h/seg.down, w/seg.down, grid, 1)
	if err != nil {
		return segment{}, err
	}
	for t := range seg.tiles {
		seg.tiles[t] = tileRect{y0: y0s[t], x0: x0s[t], h: ths[t], w: tws[t], oy0: oy0s[t], ox0: ox0s[t]}
	}
	return seg, nil
}

// runStride is the total spatial downsampling of consecutive blocks: a
// stage's first block carries the stage stride, the rest have stride 1.
func runStride(arch *supernet.Arch, blocks []blockRef) int {
	down := 1
	for _, b := range blocks {
		if b.index == 0 {
			down *= arch.Stages[b.stage].Stride
		}
	}
	return down
}
