package runtime

import (
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
)

// TestDesignTableMatchesTransitions parses the transition table of DESIGN.md
// §6.1 and compares every row with what Apply does, the way internal/fault
// pins §13.4: the document is the specification, and it cannot drift.
func TestDesignTableMatchesTransitions(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### 6.1 ")
	if !ok {
		t.Fatal("DESIGN.md has no §6.1")
	}
	section, _, _ = strings.Cut(section, "\n#")

	yesNo := map[bool]string{true: "yes", false: "no"}
	mask := func(r transitionRow) string {
		switch {
		case r.set == outDown && r.clear == 0:
			return "down"
		case r.clear == outDown && r.set == 0:
			return "not down"
		case r.set == outQuarantined && r.clear == 0:
			return "quarantined"
		case r.clear == outQuarantined && r.set == 0:
			return "not quarantined"
		case r.set == 0 && r.clear == 0:
			return "unchanged"
		}
		return "a mask change §6.1 has no word for"
	}

	rows := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		name := strings.Trim(cells[0], "`")
		if _, dup := rows[name]; dup {
			t.Errorf("transition %q has two rows", name)
		}
		rows[name] = cells
	}
	if len(rows) != int(numTransitions) {
		t.Errorf("§6.1 has %d transition rows, the table has %d transitions", len(rows), numTransitions)
	}
	for tr := Transition(0); tr < numTransitions; tr++ {
		cells, ok := rows[tr.String()]
		if !ok || len(cells) != 6 {
			t.Errorf("%v: no 6-cell row in §6.1 (got %q)", tr, cells)
			continue
		}
		r := transitionRows[tr]
		// cells[1] is prose: which verdict the transition translates.
		want := []string{yesNo[r.fence], mask(r), yesNo[r.invalidate], yesNo[r.resetAdaptive]}
		if got := cells[2:]; strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%v: §6.1 says %q, Apply does %q", tr, got, want)
		}
	}
}

// TestApplyPerformsItsRow drives every transition against a record whose
// every piece of state is dirty and checks exactly the row's columns moved.
func TestApplyPerformsItsRow(t *testing.T) {
	a := supernet.TinyArch(4)
	for tr := Transition(0); tr < numTransitions; tr++ {
		sched := NewScheduler(supernet.New(a, 1), make([]*rpcx.Client, 1))
		cache := NewStrategyCache(8, 25, 5, 10)
		rt := New(sched, spreadDecider(a, 1), cache, nil)
		r := rt.Devices.rec(1)
		r.out.Store(outDown | outQuarantined)
		r.expectedInc.Store(7)
		r.panicStreak.Store(2)
		r.limiter.Cut()
		cut := r.limiter.Limit()

		rt.Devices.Apply(Change{Dev: 1, To: tr, Incarnation: 9})

		row := transitionRows[tr]
		if got, want := r.out.Load(), (outDown|outQuarantined)&^row.clear|row.set; got != want {
			t.Errorf("%v: out bits %b, want %b", tr, got, want)
		}
		if got := r.expectedInc.Load() == 9; got != row.fence {
			t.Errorf("%v: incarnation raised = %v, want %v", tr, got, row.fence)
		}
		if got := cache.Stats().InvalidationEpochs == 1; got != row.invalidate {
			t.Errorf("%v: cache invalidated = %v, want %v", tr, got, row.invalidate)
		}
		if got := r.limiter.Limit() > cut && r.panicStreak.Load() == 0; got != row.resetAdaptive {
			t.Errorf("%v: adaptive state reset = %v, want %v", tr, got, row.resetAdaptive)
		}
		select {
		case <-rt.Devices.Changed():
		default:
			t.Errorf("%v: the subscriber was not notified", tr)
		}
	}
}

// spreadDecider places tile t of every block on remote device 1 + t%n, so a
// resolved placement names every device unless something strips it.
func spreadDecider(a *supernet.Arch, n int) DeciderFunc {
	return func(env.Constraint) (*env.Decision, error) {
		cfg := a.MaxConfig()
		for i := range cfg.Layers {
			cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
		}
		costs, err := a.Costs(cfg)
		if err != nil {
			return nil, err
		}
		p := supernet.LocalPlacement(costs)
		for k := range p.Devices {
			for ti := range p.Devices[k] {
				p.Devices[k][ti] = 1 + (k+ti)%n
			}
		}
		return &env.Decision{Config: cfg, Placement: p}, nil
	}
}

// TestEligibleIsTheSingleRead: for random transition sequences over 4
// remotes, every consumer of placement agrees with Eligible — the constraint
// shows the dead link for exactly the ineligible devices, no placement out of
// ResolveFor (cache hit, miss, or coalesced onto another caller's decide)
// names one, and AlternateFor never offers one.
func TestEligibleIsTheSingleRead(t *testing.T) {
	const remotes = 4
	a := supernet.TinyArch(4)
	sched := NewScheduler(supernet.New(a, 2), make([]*rpcx.Client, remotes))
	slow := spreadDecider(a, remotes)
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		time.Sleep(2 * time.Millisecond) // hold the flight open so callers coalesce
		return slow(c)
	})
	rt := New(sched, decider, NewStrategyCache(64, 25, 5, 10), nil)
	for i := 0; i < remotes; i++ {
		rt.SetLinkState(i, 100, float64(5+i))
	}
	slo := SLO{Type: env.LatencySLO, Value: 200}

	rng := rand.New(rand.NewSource(18))
	for step := 0; step < 60; step++ {
		var batch []Change
		for n := 1 + rng.Intn(3); n > 0; n-- {
			batch = append(batch, Change{Dev: 1 + rng.Intn(remotes), To: Transition(rng.Intn(int(numTransitions)))})
		}
		rt.Devices.Apply(batch...)

		c := rt.ConstraintFor(slo)
		for dev := 1; dev <= remotes; dev++ {
			dead := c.BandwidthMbps[dev-1] == downBandwidthMbps && c.DelayMs[dev-1] == downDelayMs
			if dead == rt.Devices.Eligible(dev) {
				t.Fatalf("step %d after %v: device %d eligible=%v but dead link=%v",
					step, batch, dev, rt.Devices.Eligible(dev), dead)
			}
			if alt := rt.AlternateFor(dev); alt != 0 && (alt == dev || !rt.Devices.Eligible(alt)) {
				t.Fatalf("step %d: AlternateFor(%d) = %d, which is the primary or ineligible", step, dev, alt)
			}
		}

		// The table is quiet while these run, so what a placement may name is
		// well defined; the resolutions race each other, not Apply.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := rt.ResolveFor(slo)
				if err != nil {
					t.Error(err)
					return
				}
				for k, layer := range res.Decision.Placement.Devices {
					for ti, dev := range layer {
						if !rt.Devices.Eligible(dev) {
							t.Errorf("step %d: block %d tile %d placed on ineligible device %d (hit=%v)",
								step, k, ti, dev, res.CacheHit)
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if cs := rt.Cache.Stats(); cs.Hits == 0 || cs.Misses == 0 || rt.ResolveCoalesced() == 0 {
		t.Fatalf("the sequence must exercise all three resolution paths: hits=%d misses=%d coalesced=%d",
			cs.Hits, cs.Misses, rt.ResolveCoalesced())
	}
}

// TestEligibleReadsCopyNoMask pins the cost of the read side: sanitizing a
// clean placement allocates nothing (at the parent it copied both masks), and
// the admission-time pair StrategyKeyFor + sanitizeDecision stays below the
// parent's 21 allocations for 4 remotes (17 here: the constraint's two
// slices and the key's formatting).
func TestEligibleReadsCopyNoMask(t *testing.T) {
	a := supernet.TinyArch(4)
	sched := NewScheduler(supernet.New(a, 3), make([]*rpcx.Client, 4))
	d, err := spreadDecider(a, 4)(env.Constraint{})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(sched, spreadDecider(a, 4), NewStrategyCache(16, 25, 5, 10), nil)
	slo := SLO{Type: env.LatencySLO, Value: 200}
	if n := testing.AllocsPerRun(100, func() { rt.sanitizeDecision(d) }); n != 0 {
		t.Errorf("sanitizeDecision on a clean placement allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { rt.StrategyKeyFor(slo); rt.sanitizeDecision(d) }); n >= 21 {
		t.Errorf("StrategyKeyFor + sanitizeDecision allocate %v times, the parent's 21 or more", n)
	}
}

// TestApplyConcurrentWithReads runs the lock-free read side against a writer
// (for the race detector), and checks that a placement resolved after the
// last Apply returned honours the table as Apply left it.
func TestApplyConcurrentWithReads(t *testing.T) {
	const remotes = 4
	a := supernet.TinyArch(4)
	sched := NewScheduler(supernet.New(a, 4), make([]*rpcx.Client, remotes))
	rt := New(sched, spreadDecider(a, remotes), NewStrategyCache(64, 25, 5, 10), nil)
	slo := SLO{Type: env.LatencySLO, Value: 200}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rt.ResolveFor(slo); err != nil {
					t.Error(err)
					return
				}
				rt.AlternateFor(1)
				rt.Devices.Snapshot()
			}
		}()
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 500; i++ {
		rt.Devices.Apply(Change{Dev: 1 + rng.Intn(remotes), To: Transition(rng.Intn(int(numTransitions)))})
	}
	rt.Devices.Apply(Change{Dev: 2, To: DeviceDown}, Change{Dev: 3, To: DeviceQuarantine})
	close(stop)
	readers.Wait()

	res, err := rt.ResolveFor(slo)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range res.Decision.Placement.Devices {
		for _, dev := range layer {
			if dev == 2 || dev == 3 {
				t.Fatalf("placement %v names device %d, which is out", res.Decision.Placement.Devices, dev)
			}
		}
	}
}
