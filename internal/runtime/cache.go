package runtime

import (
	"container/list"
	"math"
	"strconv"
	"sync"

	"murmuration/internal/rl/env"
)

// StrategyCache memoizes constraint→decision mappings so the RL policy need
// not re-run for every inference (paper §5: "A Strategy Cache is utilized to
// store the known constraint ... to strategy ... mapping"). Keys are
// bucketized network conditions, so nearby conditions share an entry; the
// cache is LRU-bounded.
//
// Invalidation is epoch-based and lazy: losing a device (InvalidateDevice)
// or changing policy regime (Clear) bumps an epoch counter in O(1) instead
// of walking every entry under the lock. Each entry is stamped with the
// global epoch and the epoch of every remote device its decision places
// work on; a lookup that finds an entry whose stamps are behind the current
// epochs removes it and reports a miss. A correlated kill of K devices is
// therefore K integer increments, not K full-cache sweeps serialized
// against the admission path.
type StrategyCache struct {
	mu  sync.Mutex
	cap int
	// Quantization steps for key bucketing.
	bwStepMbps float64
	delayStep  float64
	sloStep    float64

	entries map[string]*list.Element
	order   *list.List // front = most recent

	// epoch invalidates every entry when bumped (Clear); devEpochs[dev]
	// invalidates entries placing work on dev when bumped (InvalidateDevice).
	epoch     uint64
	devEpochs map[int]uint64

	// Occupancy / effectiveness counters, see Stats.
	hits               uint64
	misses             uint64
	evictions          uint64
	invalidations      uint64
	invalidationEpochs uint64
}

// CacheStats is a point-in-time snapshot of cache occupancy and hit-rate,
// for the serving layer and tests to observe without poking exported fields.
type CacheStats struct {
	Len       int
	Cap       int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Invalidations counts entries removed because an epoch bump made them
	// stale — their decision placed work on a lost device, or a policy
	// change cleared the regime. Distinct from capacity evictions so
	// failover churn is observable on its own. Removal is lazy: the counter
	// ticks when a lookup (or a capacity eviction) actually encounters the
	// stale entry, not when the epoch moves.
	Invalidations uint64
	// InvalidationEpochs counts invalidation *events* — InvalidateDevice and
	// Clear calls — each of which is an O(1) epoch bump regardless of how
	// many entries it strands. This is the storm-visible counter: a
	// correlated loss of K devices is K epoch bumps on the spot, while the
	// stranded entries drain into Invalidations lazily.
	InvalidationEpochs uint64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// devStamp records the epoch one placed device had when the entry was
// cached; the entry is stale once the device's epoch has moved past it.
type devStamp struct {
	dev   int
	epoch uint64
}

type cacheEntry struct {
	key      string
	decision *env.Decision
	epoch    uint64 // global epoch at stamping
	devs     []devStamp
}

// NewStrategyCache creates a cache with the given capacity. Steps control
// key granularity (e.g. 25 Mb/s, 5 ms, 10 ms/0.5 %).
func NewStrategyCache(capacity int, bwStepMbps, delayStepMs, sloStep float64) *StrategyCache {
	if capacity < 1 {
		capacity = 1
	}
	if bwStepMbps <= 0 {
		bwStepMbps = 25
	}
	if delayStepMs <= 0 {
		delayStepMs = 5
	}
	if sloStep <= 0 {
		sloStep = 10
	}
	return &StrategyCache{
		cap:        capacity,
		bwStepMbps: bwStepMbps,
		delayStep:  delayStepMs,
		sloStep:    sloStep,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
		devEpochs:  make(map[int]uint64),
	}
}

// Key bucketizes a constraint: "L" or "A" and the SLO bucket, then
// "|bandwidth,delay" buckets per remote device. The key is built in a stack
// buffer; only the string returned is allocated.
func (c *StrategyCache) Key(ct env.Constraint) string {
	var buf [64]byte
	key := append(buf[:0], 'L')
	slo := ct.LatencyMs
	if ct.Type != env.LatencySLO {
		key[0], slo = 'A', ct.AccuracyPct
	}
	key = strconv.AppendInt(key, int64(int(math.Round(slo/c.sloStep))), 10)
	for i := range ct.BandwidthMbps {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(int(math.Round(ct.BandwidthMbps[i]/c.bwStepMbps))), 10)
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(int(math.Round(ct.DelayMs[i]/c.delayStep))), 10)
	}
	return string(key)
}

// staleLocked reports whether an entry's epoch stamps are behind the current
// epochs. Caller holds c.mu.
func (c *StrategyCache) staleLocked(e *cacheEntry) bool {
	if e.epoch != c.epoch {
		return true
	}
	for _, s := range e.devs {
		if c.devEpochs[s.dev] != s.epoch {
			return true
		}
	}
	return false
}

// stampLocked refreshes an entry's epoch stamps to the current epochs for
// its decision's placement. Caller holds c.mu.
func (c *StrategyCache) stampLocked(e *cacheEntry) {
	e.epoch = c.epoch
	e.devs = e.devs[:0]
	if e.decision == nil || e.decision.Placement == nil {
		return
	}
	for _, layer := range e.decision.Placement.Devices {
		for _, dev := range layer {
			if dev <= 0 {
				continue
			}
			seen := false
			for _, s := range e.devs {
				if s.dev == dev {
					seen = true
					break
				}
			}
			if !seen {
				e.devs = append(e.devs, devStamp{dev: dev, epoch: c.devEpochs[dev]})
			}
		}
	}
}

// removeLocked drops an entry from the map and the LRU list. Caller holds
// c.mu.
func (c *StrategyCache) removeLocked(el *list.Element) {
	c.order.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
}

// Get returns the cached decision for a constraint, if any. An entry
// stranded by an epoch bump is removed here and reported as a miss — this
// lazy sweep is what lets invalidation itself be O(1).
func (c *StrategyCache) Get(ct env.Constraint) (*env.Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[c.Key(ct)]
	if ok && c.staleLocked(el.Value.(*cacheEntry)) {
		c.removeLocked(el)
		c.invalidations++
		ok = false
	}
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).decision, true
}

// Put stores a decision for a constraint, evicting the least recently used
// entry at capacity.
func (c *StrategyCache) Put(ct env.Constraint, d *env.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := c.Key(ct)
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.decision = d
		c.stampLocked(e)
		c.order.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, decision: d}
	c.stampLocked(e)
	el := c.order.PushFront(e)
	c.entries[key] = el
	if c.order.Len() > c.cap {
		last := c.order.Back()
		// A stranded entry reclaimed by capacity pressure is an
		// invalidation finally landing, not a working-set eviction.
		if c.staleLocked(last.Value.(*cacheEntry)) {
			c.invalidations++
		} else {
			c.evictions++
		}
		c.removeLocked(last)
	}
}

// InvalidateDevice strands every cached strategy whose decision places at
// least one tile on placement device dev (>= 1; device 0 is local and never
// invalidated) by bumping the device's epoch — O(1) regardless of cache
// size; the stranded entries are removed lazily as lookups (or capacity
// evictions) encounter them. The cluster layer calls this on a Down event
// so stale placements cannot keep failing requests on a dead device.
func (c *StrategyCache) InvalidateDevice(dev int) {
	if dev <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.devEpochs[dev]++
	c.invalidationEpochs++
}

// Clear strands every cached strategy by bumping the global epoch — O(1)
// like InvalidateDevice — and returns how many entries were live when it
// ran.
func (c *StrategyCache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, el := range c.entries {
		if !c.staleLocked(el.Value.(*cacheEntry)) {
			n++
		}
	}
	c.epoch++
	c.invalidationEpochs++
	return n
}

// Len returns the number of cached strategies still valid under the current
// epochs. Stranded-but-unreclaimed entries are excluded: they can never be
// served again, so counting them would overstate occupancy.
func (c *StrategyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLenLocked()
}

// liveLenLocked counts non-stale entries. Caller holds c.mu. O(n), but only
// observers (Len, Stats) pay it — never the invalidation or admission path.
func (c *StrategyCache) liveLenLocked() int {
	n := 0
	for _, el := range c.entries {
		if !c.staleLocked(el.Value.(*cacheEntry)) {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of occupancy and hit/miss/eviction counters.
func (c *StrategyCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Len:                c.liveLenLocked(),
		Cap:                c.cap,
		Hits:               c.hits,
		Misses:             c.misses,
		Evictions:          c.evictions,
		Invalidations:      c.invalidations,
		InvalidationEpochs: c.invalidationEpochs,
	}
}
