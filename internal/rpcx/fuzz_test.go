package rpcx

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"murmuration/internal/fault"
)

// Frame decoders face bytes straight off a (possibly corrupted) socket, so
// they must never panic or allocate beyond the frame cap, no matter the
// input. Accepted frames must also survive a re-encode/re-decode round trip.

const fuzzFrameCap = 1 << 20

func seedRequests(f *testing.F) {
	for _, budget := range []time.Duration{0, 3 * time.Millisecond} {
		for _, checksum := range []bool{false, true} {
			var buf bytes.Buffer
			if err := writeRequest(&buf, "exec.block", []byte("tile-payload"), budget, checksum); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			// A corrupted sibling of each valid frame.
			raw := append([]byte(nil), buf.Bytes()...)
			raw[len(raw)/2] ^= 0x40
			f.Add(raw)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{5, 0, 0, 0, 0x40, 0, 0, 0, 0})
}

func FuzzReadRequest(f *testing.F) {
	seedRequests(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		method, budget, payload, checksummed, err := readRequest(bytes.NewReader(data), fuzzFrameCap)
		if err != nil {
			return
		}
		if len(payload) > fuzzFrameCap {
			t.Fatalf("payload %d bytes escaped the %d cap", len(payload), fuzzFrameCap)
		}
		if budget < 0 || budget != time.Duration(budget.Microseconds())*time.Microsecond {
			// A u64 budget large enough to overflow time.Duration can't be
			// re-encoded losslessly; decoding it without panicking is all
			// that's required.
			return
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, method, payload, budget, checksummed); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		m2, b2, p2, c2, err := readRequest(bytes.NewReader(buf.Bytes()), fuzzFrameCap)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if m2 != method || b2 != budget || !bytes.Equal(p2, payload) || c2 != checksummed {
			t.Fatalf("round trip drifted: %q/%v/%v/%v vs %q/%v/%v/%v",
				method, budget, payload, checksummed, m2, b2, p2, c2)
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	for _, status := range []byte{statusOK, statusError, statusBudget, statusCorrupt} {
		for _, checksum := range []bool{false, true} {
			var buf bytes.Buffer
			if err := writeResponse(&buf, status, []byte("response-payload"), checksum); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			raw := append([]byte(nil), buf.Bytes()...)
			raw[len(raw)-1] ^= 0x01
			f.Add(raw)
		}
	}
	f.Add([]byte{0, 0, 0, 0})
	// statusFault frames a peer should never send: no class byte at all, and a
	// class byte beyond what this build knows. Both must decode to Unknown.
	for _, payload := range [][]byte{nil, {0xEE, 'x'}} {
		var buf bytes.Buffer
		if err := writeResponse(&buf, statusFault, payload, false); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		status, payload, err := readResponse(bytes.NewReader(data), fuzzFrameCap)
		if err != nil {
			return
		}
		if len(payload) > fuzzFrameCap {
			t.Fatalf("payload %d bytes escaped the %d cap", len(payload), fuzzFrameCap)
		}
		if status == statusFault {
			if c := decodeFault(payload).Class; c >= fault.NumClasses {
				t.Fatalf("statusFault payload %v decoded to out-of-range class %d", payload, c)
			}
		}
		var buf bytes.Buffer
		if err := writeResponse(&buf, status, payload, false); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		s2, p2, err := readResponse(bytes.NewReader(buf.Bytes()), fuzzFrameCap)
		if err != nil || s2 != status || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip drifted: %d/%v vs %d/%v (%v)", status, payload, s2, p2, err)
		}
	})
}

// FuzzServeConn drives raw byte streams at a live server connection: no
// input may panic the serve goroutine, leak it, or wedge it past its
// deadlines — the self-protection contract for a public-facing socket.
func FuzzServeConn(f *testing.F) {
	seedRequests(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer()
		s.MaxFrameSize = fuzzFrameCap
		s.ConnIdleTimeout = 200 * time.Millisecond
		s.WriteTimeout = 200 * time.Millisecond
		s.Handle("exec.block", func(p []byte) ([]byte, error) {
			if len(p) > 0 && p[0] == 0xFF {
				panic("fuzz-triggered handler panic")
			}
			return p, nil
		})
		client, server := net.Pipe()
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			s.serveConn(server)
		}()
		client.SetDeadline(time.Now().Add(time.Second))
		client.Write(data)
		// Drain whatever the server answers so its writes can't block on the
		// unbuffered pipe, then signal EOF.
		go io.Copy(io.Discard, client)
		time.Sleep(time.Millisecond)
		client.Close()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatal("serveConn did not exit after the client hung up")
		}
		s.Close()
	})
}
