package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	goruntime "runtime"
	"testing"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
)

// FuzzDecodeStats hammers the versioned stats codec with arbitrary frames:
// it must never panic, and any frame it accepts must survive a re-encode
// round trip bit-for-bit.
func FuzzDecodeStats(f *testing.F) {
	full := Stats{Admitted: 1, Served: 2, Degraded: 3, Hedges: 4}
	full.QueueDepth = [numClasses]int{5, 6, 7}
	full.Cache = runtime.CacheStats{Len: 8, Cap: 9, Hits: 10}
	f.Add(encodeStats(full))
	f.Add(encodeStats(Stats{}))
	f.Add([]byte{})
	f.Add([]byte{statsWireVersion})
	f.Add([]byte{statsWireVersion + 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeStats(b)
		if err != nil {
			return
		}
		out, err := decodeStats(encodeStats(s))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if out != s {
			t.Fatalf("stats round trip mismatch:\n got %+v\nwant %+v", out, s)
		}
	})
}

// FuzzDecodeInferRequest hammers the infer-request codec: arbitrary frames
// must never panic, and every accepted frame must yield a valid SLO and one
// rank-4 image (the invariants the queueing path indexes on).
func FuzzDecodeInferRequest(f *testing.F) {
	valid := func(sloType byte, value float64, x *tensor.Tensor) []byte {
		var buf bytes.Buffer
		var u8 [8]byte
		buf.WriteByte(sloType)
		binary.LittleEndian.PutUint64(u8[:], math.Float64bits(value))
		buf.Write(u8[:])
		if err := tensor.Encode(&buf, x); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(byte(env.LatencySLO), 50, tensor.New(1, 3, 8, 8)))
	f.Add(valid(byte(env.AccuracySLO), 0.9, tensor.New(2, 1, 4, 4)))
	f.Add(valid(byte(env.LatencySLO), 50, tensor.New(4)))
	f.Add([]byte{})
	f.Add([]byte{byte(env.LatencySLO), 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		var slo runtime.SLO
		var x *tensor.Tensor
		var err error
		// What the codec allocates follows the bytes that arrived, never a
		// size the header only claims.
		if n, limit := allocatedBy(func() { slo, x, err = decodeInferRequest(b) }), uint64(1<<20+8*len(b)); n > limit {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes, limit %d", len(b), n, limit)
		}
		if err != nil {
			return
		}
		if slo.Type != env.LatencySLO && slo.Type != env.AccuracySLO {
			t.Fatalf("accepted frame with SLO type %d", slo.Type)
		}
		if x == nil || x.Rank() != 4 || x.Shape[0] != 1 {
			t.Fatalf("accepted frame with a non-NCHW or batched image: %v", x)
		}
	})
}

// allocatedBy is the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	f()
	goruntime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// inferFrame is an infer request for a latency SLO whose image header claims
// shape and is followed by payload bytes.
func inferFrame(shape []int, payload int) []byte {
	b := []byte{byte(env.LatencySLO)}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(50))
	b = append(b, 'T', byte(len(shape)))
	for _, d := range shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return append(b, make([]byte, payload)...)
}

// TestInferChecksClaimsBeforeAllocating: the gateway's public entry point
// refuses an image whose header claims more than the frame holds — a 27-byte
// request that declares 1×3×8192×5461 floats, a cut-short image, one coded at
// two bytes an element — for less than a MiB, before sizing anything by the
// claim.
func TestInferChecksClaimsBeforeAllocating(t *testing.T) {
	g := New(newTestRuntime(1, nil), Options{})
	defer g.Close(time.Second)
	huge, small := []int{1, 3, 8192, 5461}, []int{1, 3, 32, 32}
	for name, p := range map[string][]byte{
		"27 bytes claiming 512 MiB": inferFrame(huge, 0),
		"4 KB claiming 512 MiB":     inferFrame(huge, 4096),
		"cut short":                 inferFrame(small, 4*3*32*32-1),
		"two bytes an element":      inferFrame(small, 2*3*32*32),
	} {
		var err error
		if n := allocatedBy(func() { _, err = g.handleInfer(p) }); n >= 1<<20 {
			t.Errorf("%s: refusing a %d-byte request allocated %d bytes", name, len(p), n)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := g.handleInfer(inferFrame(small, 4*3*32*32)); err != nil {
		t.Fatalf("a well-formed request failed: %v", err)
	}
}
