package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

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
		slo, x, err := decodeInferRequest(b)
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
