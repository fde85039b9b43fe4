package rpcx

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"

	"murmuration/internal/fault"
	"murmuration/internal/testutil"
)

// A handler error born with a class crosses the wire as statusFault and comes
// back as a *RemoteError of the same class, text intact; an unclassified one
// still travels as the plain statusError.
func TestFaultClassCrossesWire(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewServer()
	s.Handle("fail", func(p []byte) ([]byte, error) {
		c := fault.Class(p[0])
		if c == fault.Unknown {
			return nil, errors.New("plain failure")
		}
		// Wrapped, so the server has to classify through the chain.
		return nil, fmt.Errorf("handler: %w", fault.New(c, "born "+c.String()))
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for class := fault.Class(0); class < fault.NumClasses; class++ {
		_, err := c.Call("fail", []byte{byte(class)})
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%v: got %T (%v), want *RemoteError", class, err, err)
		}
		if got := fault.Of(err); got != class {
			t.Errorf("%v: came back as %v", class, got)
		}
		want := "handler: born " + class.String()
		if class == fault.Unknown {
			want = "plain failure"
		}
		if re.Msg != want {
			t.Errorf("%v: message %q, want %q", class, re.Msg, want)
		}
	}
}

// A response whose status this build does not know — what a newer peer's new
// typed refusal looks like — decodes to a plain RemoteError of class Unknown:
// mixed builds lose the class, never the call.
func TestUnknownStatusIsPlainRemoteError(t *testing.T) {
	testutil.CheckGoroutines(t)
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() {
		r, w := bufio.NewReader(srvConn), bufio.NewWriter(srvConn)
		if _, _, _, _, err := readRequest(r, DefaultMaxFrameSize); err != nil {
			return
		}
		if writeResponse(w, statusMask, []byte("from the future"), false) == nil {
			w.Flush()
		}
	}()
	c := NewClient(cliConn, nil)
	defer c.Close()
	_, err := c.Call("any", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "from the future" {
		t.Fatalf("unknown status: got %T (%v), want *RemoteError carrying the payload", err, err)
	}
	if got := fault.Of(err); got != fault.Unknown {
		t.Fatalf("unknown status classified as %v, want unknown", got)
	}
}

// statusFault payloads a peer should never send still decode without panic.
func TestDecodeFaultMalformed(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {byte(fault.NumClasses)}, {0xFF, 'x'}} {
		if got := decodeFault(payload).Class; got != fault.Unknown {
			t.Errorf("decodeFault(%v) class %v, want unknown", payload, got)
		}
	}
}
