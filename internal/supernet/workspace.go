package supernet

import (
	"math"
	"sync/atomic"

	"murmuration/internal/tensor"
)

// role names what a workspace buffer holds during a run. A role has one
// buffer: asking for it again hands the same memory out, so whatever it held
// must be dead by then. That is true of every role by the shape of an
// inverted-bottleneck block — each activation is read by the one op after it
// (and the residual add at the block's end) — and of the block outputs
// because they alternate between two buffers.
type role int

const (
	roleImage  role = iota // the input resized to the config's resolution
	roleCols               // the stem's planar im2col columns
	roleQuant              // a block's input after its quantization round trip
	roleExpand             // a block's expand output; the head's conv output
	roleDW                 // a block's depthwise output
	roleOutA               // block outputs (the stem's, a segment's, a tile's,
	roleOutB               // a remote run's reply), alternating
	numRoles
)

// holdMin is the size in bytes, per image, below which a workspace does not
// keep a role's buffer: smaller activations are allocated fresh and left to
// the collector, as everything was before there were workspaces. Every
// activation of the tiny net is that small (27 KB at most), and holding them
// costs more than it buys. Measured on local_tiny_open300, three seeds a side:
// held, p50 2.52–2.65 ms and 0.45 ms CPU a request; not held, 2.56–2.57 ms and
// 0.46–0.50 — no difference to tell from the spread — while holding kept
// 4.18–4.75 MB live against the parent's 3.87 (the buffers grow with the
// largest batch seen, to 0.9 MB in two workspaces) where that metric's bound
// is +15 %; not holding reads 3.81–3.82. Per image, so that whether a role is
// held follows from the architecture and not from how requests were batched.
// On the paper-scale net the early layers' roles run from 150 KB to 1.2 MB.
const holdMin = 64 << 10

// Workspace is the scratch memory of one inference run: a buffer per role,
// each grown to the largest size its role has needed and kept for the next
// run. One goroutine owns a workspace from AcquireWorkspace to Release — the
// scheduler's request goroutine, a local tile's goroutine, a daemon's
// exec.block handler — and every activation of that run is written into it,
// into memory that is already in cache, instead of into fresh zeroed pages.
// The kernels never read a destination (tensor.Conv2DInto), so nothing needs
// clearing between runs.
//
// A tensor a workspace hands out is valid until the same role is asked for
// again or the workspace is released, whichever comes first. Nothing that
// outlives the run may alias it: logits, exec results handed to callers and
// encoded frames are allocated on their own.
type Workspace struct {
	net  *Supernet
	held [numRoles][]float32
	// view is the tensor handed out per role: reused, so a run allocates no
	// headers either.
	view [numRoles]tensor.Tensor
	outB bool // the next Out hands out roleOutB, not roleOutA
	// resize holds the input resize's per-axis tables, rebuilt per call.
	resize tensor.ResizeAxes
}

// AcquireWorkspace returns a workspace for one run on the calling goroutine:
// an idle one of this supernet, most recently used first, or a new one when
// every other is in use. A supernet therefore keeps as many workspaces as it
// has ever had concurrent runs, each as large as the largest submodel it has
// run; nothing else bounds or tunes it.
func (s *Supernet) AcquireWorkspace() *Workspace {
	s.wsMu.Lock()
	defer s.wsMu.Unlock()
	if n := len(s.wsIdle); n > 0 {
		ws := s.wsIdle[n-1]
		s.wsIdle = s.wsIdle[:n-1]
		return ws
	}
	return &Workspace{net: s}
}

// Release ends the run: every tensor the workspace handed out is dead, and
// the workspace goes back to its supernet.
func (ws *Workspace) Release() {
	if poison.Load() {
		for r := range ws.held {
			fillNaN(ws.held[r])
		}
	}
	for r := range ws.view {
		ws.view[r].Data = nil // an idle workspace keeps its held buffers only
	}
	ws.outB = false
	s := ws.net
	s.wsMu.Lock()
	s.wsIdle = append(s.wsIdle, ws)
	s.wsMu.Unlock()
}

// buf hands out role r's buffer shaped as given. The contents are whatever
// the role last held: the caller is a kernel's destination.
func (ws *Workspace) buf(r role, n, c, h, w int) *tensor.Tensor {
	size := n * c * h * w
	t := &ws.view[r]
	t.Shape = append(t.Shape[:0], n, c, h, w)
	switch {
	case cap(ws.held[r]) >= size:
		t.Data = ws.held[r][:size]
	case c*h*w*4 < holdMin && !poison.Load():
		t.Data = make([]float32, size)
	default:
		ws.held[r] = make([]float32, size)
		t.Data = ws.held[r]
	}
	if poison.Load() {
		fillNaN(t.Data)
	}
	return t
}

// Out hands out the next block-output buffer, (n,c,h,w): the two alternate,
// so the tensor from the Out before last is overwritten — by then its
// successor has been computed from it and it is dead. The scheduler takes a
// multi-tile segment's result and a remote run's reply from here, a daemon
// its decoded input.
func (ws *Workspace) Out(n, c, h, w int) *tensor.Tensor {
	r := roleOutA
	if ws.outB {
		r = roleOutB
	}
	ws.outB = !ws.outB
	return ws.buf(r, n, c, h, w)
}

// Quantize returns x as a block sees it after crossing a device boundary at
// the given bitwidth (tensor.FakeQuantize): x itself at 32 bits.
func (ws *Workspace) Quantize(x *tensor.Tensor, bits tensor.Bitwidth) *tensor.Tensor {
	if bits == tensor.Bits32 {
		return x
	}
	q := ws.buf(roleQuant, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3])
	tensor.FakeQuantizeInto(q, x, bits)
	return q
}

// poison makes every workspace fill a buffer with NaNs as it hands it out and
// again when the run ends, so that a kernel that skips part of its
// destination, or a tensor read after its buffer moved on, puts a NaN in the
// logits instead of a plausible stale value. It also makes a workspace hold
// every buffer, however small, so that the tiny net most oracles run on
// reuses its memory the way the paper-scale net does in production.
var poison atomic.Bool

// PoisonWorkspaces turns poisoning on or off. It is a hook for tests: the
// packages whose oracles pin the inference path bit for bit turn it on for
// their whole run.
func PoisonWorkspaces(on bool) { poison.Store(on) }

func fillNaN(x []float32) {
	nan := float32(math.NaN())
	for i := range x {
		x[i] = nan
	}
}
