package rpcx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"
)

// The integrity layer must be invisible to peers that don't opt in: a
// budget-less, checksum-less request is bit-identical to the historical
// frame.

func TestLegacyFrameBitIdentical(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRequest(&buf, "echo", []byte("hello"), 0, false); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		10, 0, 0, 0, // totalLen = 1 + 4 + 5
		4,                  // methodLen, no flags
		'e', 'c', 'h', 'o', // method
		'h', 'e', 'l', 'l', 'o', // payload
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("legacy request frame changed:\n got %v\nwant %v", buf.Bytes(), want)
	}

	buf.Reset()
	if err := writeResponse(&buf, statusOK, []byte("ok"), false); err != nil {
		t.Fatal(err)
	}
	want = []byte{3, 0, 0, 0, statusOK, 'o', 'k'}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("legacy response frame changed:\n got %v\nwant %v", buf.Bytes(), want)
	}
}

func TestRequestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		budget   time.Duration
		checksum bool
	}{
		{"legacy", 0, false},
		{"budget", 250 * time.Millisecond, false},
		{"checksum", 0, true},
		{"budget+checksum", 250 * time.Millisecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			payload := []byte{0, 1, 2, 0xfe, 0xff}
			if err := writeRequest(&buf, "m.ethod", payload, tc.budget, tc.checksum); err != nil {
				t.Fatal(err)
			}
			method, budget, got, checksummed, err := readRequest(bytes.NewReader(buf.Bytes()), DefaultMaxFrameSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			if method != "m.ethod" || budget != tc.budget || !bytes.Equal(got, payload) || checksummed != tc.checksum {
				t.Fatalf("round trip mismatch: method=%q budget=%v payload=%v checksummed=%v",
					method, budget, got, checksummed)
			}
		})
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	for _, checksum := range []bool{false, true} {
		var buf bytes.Buffer
		if err := writeResponse(&buf, statusBudget, []byte("late"), checksum); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readResponse(bytes.NewReader(buf.Bytes()), DefaultMaxFrameSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status != statusBudget || string(payload) != "late" {
			t.Fatalf("checksum=%v: got status %d payload %q", checksum, status, payload)
		}
	}
}

func TestChecksumMismatchIsTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRequest(&buf, "exec", []byte("payload-bytes"), 0, true); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] ^= 0x10 // flip a bit inside the method/payload region
	_, _, _, _, err := readRequest(bytes.NewReader(raw), DefaultMaxFrameSize, nil)
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want typed FrameError matching ErrCorruptFrame, got %v", err)
	}

	buf.Reset()
	if err := writeResponse(&buf, statusOK, []byte("response-bytes"), true); err != nil {
		t.Fatal(err)
	}
	raw = buf.Bytes()
	raw[6] ^= 0x01
	_, _, err = readResponse(bytes.NewReader(raw), DefaultMaxFrameSize, nil)
	if !errors.As(err, &fe) || !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want typed FrameError matching ErrCorruptFrame, got %v", err)
	}
}

func TestFrameCapEnforcedBeforeAllocation(t *testing.T) {
	// A corrupted length prefix claiming ~4 GiB must be rejected from the
	// 4 header bytes alone — readBody never sees (or allocates) the body.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 0xfffffff0)
	_, _, _, _, err := readRequest(bytes.NewReader(hdr[:]), 1<<20, nil)
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversize length prefix: want FrameError, got %v", err)
	}
	// Zero length is equally impossible (every frame has a head byte).
	binary.LittleEndian.PutUint32(hdr[:], 0)
	_, _, err = readResponse(bytes.NewReader(hdr[:]), 1<<20, nil)
	if !errors.As(err, &fe) {
		t.Fatalf("zero-length frame: want FrameError, got %v", err)
	}
}

func TestServerRejectsCorruptRequest(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf bytes.Buffer
	if err := writeRequest(&buf, "echo", []byte("damaged in flight"), 0, true); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[10] ^= 0x04 // in-flight bit flip, length prefix intact
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}

	status, payload, err := readResponse(bufio.NewReader(conn), DefaultMaxFrameSize, nil)
	if err != nil {
		t.Fatalf("corrupt request should earn a typed refusal, got read error %v", err)
	}
	if status != statusCorrupt {
		t.Fatalf("status = %d, want statusCorrupt; payload %q", status, payload)
	}
	if s.CorruptFrames() != 1 {
		t.Fatalf("server CorruptFrames = %d, want 1", s.CorruptFrames())
	}
	// The stream can no longer be trusted: the server must close it.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection should be closed after corrupt frame, read err %v", err)
	}
}

// corruptOnceServer accepts raw TCP connections; the first connection gets a
// deliberately bad-CRC response, every later connection behaves correctly.
// It exercises the client's poison → re-dial → retry path end to end.
func corruptOnceServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			corrupt := first
			first = false
			go func(conn net.Conn, corrupt bool) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					method, _, payload, checksummed, err := readRequest(r, DefaultMaxFrameSize, nil)
					_ = method
					if err != nil {
						return
					}
					var buf bytes.Buffer
					if corrupt {
						// Valid length, valid flag byte, wrong CRC: exactly
						// what a bit flip on the downlink produces.
						writeResponse(&buf, statusOK, payload, true)
						raw := buf.Bytes()
						raw[len(raw)-1] ^= 0xff
						conn.Write(raw)
						return
					}
					writeResponse(&buf, statusOK, payload, checksummed)
					conn.Write(buf.Bytes())
				}
			}(conn, corrupt)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestCorruptResponsePoisonsRedialsAndRetries(t *testing.T) {
	addr, stop := corruptOnceServer(t)
	defer stop()

	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetChecksum(true)
	cl.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	cl.MarkIdempotent("echo")

	resp, err := cl.CallTimeout("echo", []byte("retry me"), 5*time.Second)
	if err != nil {
		t.Fatalf("idempotent call should survive one corrupt response via retry: %v", err)
	}
	if string(resp) != "retry me" {
		t.Fatalf("payload corrupted across retry: %q", resp)
	}
	if cl.CorruptFrames() != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", cl.CorruptFrames())
	}
	if cl.Redials() != 1 {
		t.Fatalf("Redials = %d, want 1 (poisoned connection must be replaced)", cl.Redials())
	}
}

func TestCorruptResponseNotRetriedForNonIdempotent(t *testing.T) {
	addr, stop := corruptOnceServer(t)
	defer stop()

	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetChecksum(true)
	cl.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	// "mutate" is NOT marked idempotent: the corrupt response may hide a
	// handler that already ran, so the error must surface.
	_, err = cl.CallTimeout("mutate", []byte("once"), 5*time.Second)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("non-idempotent corrupt call: want ErrCorruptFrame, got %v", err)
	}
	if cl.CorruptFrames() != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", cl.CorruptFrames())
	}
	// The next call re-dials (retry policy installed) and succeeds.
	resp, err := cl.CallTimeout("mutate", []byte("twice"), 5*time.Second)
	if err != nil || string(resp) != "twice" {
		t.Fatalf("next call after poison should re-dial cleanly: %q %v", resp, err)
	}
	if cl.Redials() != 1 {
		t.Fatalf("Redials = %d, want 1", cl.Redials())
	}
}

func TestServerEchoesChecksum(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	readRawResponse := func() []byte {
		t.Helper()
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(r, body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	var buf bytes.Buffer
	writeRequest(&buf, "echo", []byte("a"), 0, true)
	conn.Write(buf.Bytes())
	if body := readRawResponse(); body[0]&respChecksumFlag == 0 {
		t.Fatal("checksummed request must earn a checksummed response")
	}
	buf.Reset()
	writeRequest(&buf, "echo", []byte("b"), 0, false)
	conn.Write(buf.Bytes())
	if body := readRawResponse(); body[0]&respChecksumFlag != 0 {
		t.Fatal("bare request must earn a bare (historical) response")
	}
}

func TestServerMaxFrameSize(t *testing.T) {
	s := NewServer()
	s.MaxFrameSize = 1 << 10
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.CallTimeout("echo", make([]byte, 1<<11), 5*time.Second)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("over-cap request: want ErrCorruptFrame refusal, got %v", err)
	}
}

func TestClientMaxFrameSize(t *testing.T) {
	s := NewServer()
	s.Handle("big", func(p []byte) ([]byte, error) { return make([]byte, 1<<11), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cl, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetMaxFrameSize(1 << 10)
	_, err = cl.CallTimeout("big", nil, 5*time.Second)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("over-cap response: want ErrCorruptFrame, got %v", err)
	}
	if cl.CorruptFrames() != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", cl.CorruptFrames())
	}
}

func TestChecksumCoversWholeBody(t *testing.T) {
	// The trailer CRC is computed over head byte, method, budget, and
	// payload — flipping any single one must fail verification.
	var buf bytes.Buffer
	if err := writeRequest(&buf, "m", []byte("p"), time.Second, true); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for i := 4; i < len(clean)-4; i++ {
		raw := append([]byte(nil), clean...)
		raw[i] ^= 0x80
		if _, _, _, _, err := readRequest(bytes.NewReader(raw), DefaultMaxFrameSize, nil); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at byte %d undetected: %v", i, err)
		}
	}
	// Sanity: the CRC in the trailer is a real CRC32C of the body.
	body := clean[4 : len(clean)-4]
	want := binary.LittleEndian.Uint32(clean[len(clean)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		t.Fatalf("trailer is not CRC32C of body: got %08x want %08x", got, want)
	}
}
