// Package runtime implements stage 3 of Murmuration (paper §5, Fig. 10):
// the per-device Executor serving remote block execution over rpcx, the
// Scheduler that dispatches a decision's partitions across devices, the
// Strategy Cache, the in-memory Model Reconfig, and the Runtime coordinator
// that ties them to the SLO API, the network monitor, and the decision
// engine.
package runtime

import (
	"bytes"
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
// one. The frame an older gateway sends, one block behind a 6-byte header with
// no tag,
//
//	[0] stage, [1] block index, [2] kernel, [3] expand,
//	[4] request quant bits, [5] response quant bits
//
// is still served as a run of one. runTag is above any stage index, so the
// two cannot be confused: an older daemon handed a run frame refuses it as an
// out-of-range stage instead of executing its first block.
const (
	runTag          = 0xFF
	runHeaderLen    = 2
	blockDescLen    = 5
	legacyHeaderLen = 6
)

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

func (e *Executor) handleExecBlock(payload []byte) ([]byte, error) {
	run, respBits, body, err := decodeRunHeader(payload, e.Net.Arch.MaxDepthTotal())
	if err != nil {
		return nil, err
	}
	q, err := tensor.DecodeQuantized(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(q.Shape) != 4 {
		return nil, fmt.Errorf("runtime: exec.block tile of shape %v, want N,C,H,W", q.Shape)
	}
	// The handler's goroutine owns one workspace for the run: the decoded
	// tile and every activation after it live there, and the reply is encoded
	// out of it before it goes back.
	ws := e.Net.AcquireWorkspace()
	defer ws.Release()
	x := ws.Out(q.Shape[0], q.Shape[1], q.Shape[2], q.Shape[3])
	q.DequantizeInto(x)
	y, err := execRun(ws, run, x)
	if err != nil {
		return nil, err
	}
	return encodeQuantized(nil, tensor.Quantize(y, respBits)), nil
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

// decodeRunHeader parses either request header and returns the run, the
// bitwidth to answer at and the encoded tile that follows. maxBlocks bounds
// the run length before anything is sized by it.
func decodeRunHeader(payload []byte, maxBlocks int) (run []blockRef, respBits tensor.Bitwidth, body []byte, err error) {
	n, descs := 1, payload
	respBits = tensor.Bits32
	switch {
	case len(payload) >= runHeaderLen && payload[0] == runTag:
		n, descs = int(payload[1]), payload[runHeaderLen:]
		if n < 1 || n > maxBlocks {
			return nil, 0, nil, fmt.Errorf("runtime: exec.block run of %d blocks, want 1..%d", n, maxBlocks)
		}
		if len(descs) < n*blockDescLen {
			return nil, 0, nil, fmt.Errorf("runtime: short exec.block payload: run of %d blocks truncated", n)
		}
		body = descs[n*blockDescLen:]
	case len(payload) >= legacyHeaderLen:
		respBits = tensor.Bitwidth(payload[5])
		if !respBits.Valid() {
			return nil, 0, nil, fmt.Errorf("runtime: bad response bits %d", respBits)
		}
		body = payload[legacyHeaderLen:]
	default:
		return nil, 0, nil, fmt.Errorf("runtime: short exec.block payload")
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
			return nil, 0, nil, fmt.Errorf("runtime: bad input bits %d at block %d of the run", d[4], i)
		}
	}
	return run, respBits, body, nil
}

// encodeRunRequest builds the exec.block payload for run on tile.
func encodeRunRequest(run []blockRef, tile *tensor.Tensor) ([]byte, error) {
	if len(run) < 1 || len(run) >= runTag {
		return nil, fmt.Errorf("runtime: cannot encode a run of %d blocks", len(run))
	}
	hdr := make([]byte, runHeaderLen, runHeaderLen+len(run)*blockDescLen)
	hdr[0], hdr[1] = runTag, byte(len(run))
	for _, b := range run {
		hdr = append(hdr, byte(b.stage), byte(b.index), byte(b.ls.Kernel), byte(b.ls.Expand), byte(b.ls.Quant))
	}
	return encodeQuantized(hdr, tensor.Quantize(tile, run[0].ls.Quant)), nil
}

// encodeQuantized returns hdr followed by q's wire form, appended into one
// frame sized up front.
func encodeQuantized(hdr []byte, q *tensor.Quantized) []byte {
	frame := make([]byte, 0, len(hdr)+q.EncodedLen())
	return tensor.AppendQuantized(append(frame, hdr...), q)
}
