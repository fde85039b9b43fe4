// Package runtime implements stage 3 of Murmuration (paper §5, Fig. 10):
// the per-device Executor serving remote block execution over rpcx, the
// Scheduler that dispatches a decision's partitions across devices, the
// Strategy Cache, the in-memory Model Reconfig, and the Runtime coordinator
// that ties them to the SLO API, the network monitor, and the decision
// engine.
package runtime

import (
	"errors"
	"fmt"

	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// ExecBlockMethod is the RPC method for remote tile execution.
const ExecBlockMethod = "exec.block"

// An exec.block request carries one tile and a run: the consecutive blocks
// one device executes on that tile before anything returns to the gateway.
//
//	[0] runTag, [1] n = number of blocks (1..Arch.MaxDepthTotal)
//	n × { stage, block index, kernel, expand, input quant bits }
//	the input tile, quantized at the first block's bitwidth
//
// The reply is the last block's output at 32 bits. A single block is a run of
// one. A payload that does not open with runTag is refused (ErrUntaggedRun);
// runTag is above any stage index, so a frame from another build cannot pass
// for a run.
const (
	runTag       = 0xFF
	runHeaderLen = 2
	blockDescLen = 5
)

// ErrUntaggedRun refuses an exec.block payload that does not open with
// runTag, before anything is sized by its bytes.
var ErrUntaggedRun = errors.New("runtime: exec.block payload is not a run frame")

// blockRef is one block of a run: where it sits in the supernet and the
// elastic setting it executes under.
type blockRef struct {
	stage, index int
	ls           supernet.LayerSetting
}

// Executor serves block execution against an in-memory supernet. Every
// device keeps the *full* supernet resident (paper §5.1), so any submodel
// slice can execute without weight loading.
type Executor struct {
	Net *supernet.Supernet
}

// NewExecutor wraps a supernet.
func NewExecutor(net *supernet.Supernet) *Executor { return &Executor{Net: net} }

// Register installs the executor's handlers on an RPC server.
func (e *Executor) Register(s *rpcx.Server) {
	s.Handle(ExecBlockMethod, e.handleExecBlock)
}

// ExecBlockHandler exposes the raw exec.block handler so callers can wrap it
// (fault injection in chaos tests, instrumentation) before registering the
// wrapper under ExecBlockMethod themselves.
func (e *Executor) ExecBlockHandler() func([]byte) ([]byte, error) {
	return e.handleExecBlock
}

// handleExecBlock reads the payload in place and keeps none of it: the codes
// are decoded straight into the workspace before anything else runs, which
// is what lets the rpcx server reuse the payload's buffer once the reply is
// written (rpcx.Handler) — and what lets the reply be written there.
func (e *Executor) handleExecBlock(payload []byte) ([]byte, error) {
	run, body, err := decodeRunHeader(payload, e.Net.Arch.MaxDepthTotal())
	if err != nil {
		return nil, err
	}
	f, err := tensor.ParseQuantized(body)
	if err != nil {
		return nil, err
	}
	if len(f.Shape) != 4 {
		return nil, fmt.Errorf("runtime: exec.block tile of shape %v, want N,C,H,W", f.Shape)
	}
	// The handler's goroutine owns one workspace for the run: the decoded
	// tile and every activation after it live there, and the reply is encoded
	// out of it before it goes back.
	ws := e.Net.AcquireWorkspace()
	defer ws.Release()
	x := ws.Out(f.Shape[0], f.Shape[1], f.Shape[2], f.Shape[3])
	f.DequantizeInto(x)
	y, err := execRun(ws, run, x)
	if err != nil {
		return nil, err
	}
	// The reply goes into the payload's memory when it has room, which the
	// server grows it to (rpcx.Handler); the tile was decoded out of it above.
	reply := payload[:0]
	if n := tensor.QuantizedLen(y.Shape, tensor.Bits32); cap(reply) < n {
		reply = make([]byte, 0, n)
	}
	return tensor.AppendQuantize(reply, y, tensor.Bits32), nil
}

// execRun runs x through the blocks of run in workspace ws, the one run
// executor local and remote tiles share; the result is the workspace's. x is
// the first block's input as that block must see it, already through its
// quantization round trip (the wire did it for a remote tile); every later
// block's input takes the same round trip at that block's bitwidth here,
// which is what crossing a device boundary per block would have done to it.
func execRun(ws *supernet.Workspace, run []blockRef, x *tensor.Tensor) (*tensor.Tensor, error) {
	for i, b := range run {
		if i > 0 {
			x = ws.Quantize(x, b.ls.Quant)
		}
		var err error
		if x, err = ws.Block(b.stage, b.index, x, b.ls); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// decodeRunHeader parses a run frame's header and returns the run and the
// encoded tile that follows. maxBlocks bounds the run length before anything
// is sized by it.
func decodeRunHeader(payload []byte, maxBlocks int) (run []blockRef, body []byte, err error) {
	if len(payload) < runHeaderLen {
		return nil, nil, fmt.Errorf("runtime: short exec.block payload")
	}
	if payload[0] != runTag {
		return nil, nil, ErrUntaggedRun
	}
	n, descs := int(payload[1]), payload[runHeaderLen:]
	if n < 1 || n > maxBlocks {
		return nil, nil, fmt.Errorf("runtime: exec.block run of %d blocks, want 1..%d", n, maxBlocks)
	}
	if len(descs) < n*blockDescLen {
		return nil, nil, fmt.Errorf("runtime: short exec.block payload: run of %d blocks truncated", n)
	}
	run = make([]blockRef, n)
	for i := range run {
		d := descs[i*blockDescLen:]
		run[i] = blockRef{stage: int(d[0]), index: int(d[1]), ls: supernet.LayerSetting{
			Kernel: int(d[2]),
			Expand: int(d[3]),
			Quant:  tensor.Bitwidth(d[4]),
			// Partition is irrelevant per tile; the scheduler already tiled.
			Partition: supernet.Partition{Gy: 1, Gx: 1},
		}}
		if !run[i].ls.Quant.Valid() {
			return nil, nil, fmt.Errorf("runtime: bad input bits %d at block %d of the run", d[4], i)
		}
	}
	return run, descs[n*blockDescLen:], nil
}

// runRequestLen is the size of the exec.block payload for run on tile.
func runRequestLen(run []blockRef, tile *tensor.Tensor) int {
	return runHeaderLen + len(run)*blockDescLen + tensor.QuantizedLen(tile.Shape, run[0].ls.Quant)
}

// encodeRunRequest appends the exec.block payload for run on tile to dst,
// the tile quantized straight into it; a dst of runRequestLen bytes' capacity
// takes it without growing.
func encodeRunRequest(dst []byte, run []blockRef, tile *tensor.Tensor) ([]byte, error) {
	if len(run) < 1 || len(run) >= runTag {
		return nil, fmt.Errorf("runtime: cannot encode a run of %d blocks", len(run))
	}
	dst = append(dst, runTag, byte(len(run)))
	for _, b := range run {
		dst = append(dst, byte(b.stage), byte(b.index), byte(b.ls.Kernel), byte(b.ls.Expand), byte(b.ls.Quant))
	}
	return tensor.AppendQuantize(dst, tile, run[0].ls.Quant), nil
}
