package serve

import (
	"os"
	"testing"

	"murmuration/internal/rpcx"
)

// Every rpcx server of this package's tests — gateways and the daemons behind
// them — scribbles over a request's payload once its reply is written
// (rpcx.ScribblePayloads): a handler that kept its payload past the call
// reads garbage, and the request it serves fails or answers wrong.
func TestMain(m *testing.M) {
	rpcx.ScribblePayloads(true)
	os.Exit(m.Run())
}
