package testutil

import (
	"runtime"
	"testing"
	"time"

	"murmuration/internal/tensor"
)

func TestCheckGoroutinesPassesWhenClean(t *testing.T) {
	CheckGoroutines(t)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}

func TestCheckGoroutinesWaitsForUnwind(t *testing.T) {
	CheckGoroutines(t)
	// A goroutine that exits shortly after the body returns must not be
	// reported: the cleanup polls past the unwind.
	release := make(chan struct{})
	for i := 0; i < leakSlack+5; i++ {
		go func() { <-release }()
	}
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
}

// TestTensorTeamIsNotALeak: the first kernel call of the process, at a
// parallelism far past the slack, starts the tensor worker team inside the
// window; its members live on and are not a leak.
func TestTensorTeamIsNotALeak(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(32)
	CheckGoroutines(t)
	tensor.ParallelByCost(64, 1<<15, func(start, end int) {})
	if team := runtime.NumGoroutine() - goroutines(); team < 31 {
		t.Fatalf("%d team members seen, want 31: the check is not exercised", team)
	}
}

func TestCheckGoroutinesDetectsLeak(t *testing.T) {
	// Exercise the detection predicate directly with a short deadline: a
	// pack of parked goroutines must be seen as a leak, not absorbed.
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < leakSlack+10; i++ {
		go func() { <-release }()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	leaked := false
	for {
		if runtime.NumGoroutine() <= before+leakSlack {
			break
		}
		if time.Now().After(deadline) {
			leaked = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !leaked {
		t.Fatal("parked goroutines not observed as a leak")
	}
}
