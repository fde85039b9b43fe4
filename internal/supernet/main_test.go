package supernet

import (
	"os"
	"testing"
)

// Every test of this package runs with workspace poisoning on: the oracles
// that pin the inference path (TestGoldenLogits, TestExecComposeMatchesForward,
// TestTrainingAndInferenceForwardAgree) then fail on a stale or unwritten
// activation with a NaN logit, on every run, instead of passing by luck.
func TestMain(m *testing.M) {
	PoisonWorkspaces(true)
	os.Exit(m.Run())
}

// unpoisoned runs f as production runs: no NaN fills, and the hold threshold
// in force.
func unpoisoned(f func()) {
	PoisonWorkspaces(false)
	defer PoisonWorkspaces(true)
	f()
}
