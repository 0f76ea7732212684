package experiment

import (
	"sync"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// BaselineCache memoizes no-attack baseline propagations keyed by
// (origin, λ), computing each baseline exactly once and sharing the
// Result read-only across goroutines.
//
// No sweep uses it: the sweeps run their legs through runLegs,
// which computes each (victim, λ) group's baseline once and drops it.
// The type survives only for perfbench's traced pair replay, which calls
// NewBaselineCacheBudget, Get and PeakBytes; once that replay runs
// through the sweep executor the type can be deleted.
//
// Invalidation rule: there is none. A cache is bound to one immutable
// Graph for its whole lifetime — entries can never go stale because
// neither the topology nor an entry's (origin, λ) announcement can
// change. Never reuse a cache across graphs.
//
// The cached Results are shared: callers must treat them as read-only.
// Only plain scenarios are cacheable: the key cannot represent
// per-neighbor prepending or withheld sessions.
type BaselineCache struct {
	g   *topology.Graph
	obs *obs.Counters
	mu  sync.Mutex
	m   map[baselineKey]*baselineEntry

	// Byte-budgeted mode. budget == 0 means unbounded. In budgeted mode
	// the cache tracks the bytes of successfully installed Results (order
	// records insertion order) and evicts FIFO down to budget whenever an
	// insert exceeds it, always retaining at least the keep newest
	// entries (so the entry just installed survives its own insert).
	// Eviction deletes the map entry only: outstanding *Result pointers
	// stay valid, and an evicted key is recomputed — and re-counted as a
	// miss — if requested again. peak is the high-watermark PeakBytes
	// reports. The accounting assumes single-goroutine use: the goroutine
	// that creates an entry is the one that computes it.
	budget int64
	keep   int
	bytes  int64
	peak   int64
	order  []baselineKey
}

type baselineEntry struct {
	once sync.Once
	res  *routing.Result
	err  error
}

// NewBaselineCache returns an empty cache bound to g.
func NewBaselineCache(g *topology.Graph) *BaselineCache {
	return NewBaselineCacheObs(g, nil)
}

// NewBaselineCacheObs is NewBaselineCache recording cache hits/misses and
// baseline propagations into the optional counters (nil disables
// recording). A miss is the Get that creates an entry; concurrent Gets for
// the same key that arrive while the single computation runs count as
// hits, so hits+misses always equals the number of Get calls and misses
// equals the number of distinct keys — both deterministic.
func NewBaselineCacheObs(g *topology.Graph, c *obs.Counters) *BaselineCache {
	return &BaselineCache{g: g, obs: c, m: make(map[baselineKey]*baselineEntry)}
}

// NewBaselineCacheBudget returns a byte-budgeted cache for
// single-goroutine use: once the installed Results exceed budget bytes
// the oldest entries are evicted FIFO, always retaining at least the
// keep newest (keep is clamped to >= 1). budget <= 0 means unbounded,
// identical to NewBaselineCacheObs.
func NewBaselineCacheBudget(g *topology.Graph, c *obs.Counters, budget int64, keep int) *BaselineCache {
	cc := NewBaselineCacheObs(g, c)
	if budget > 0 {
		if keep < 1 {
			keep = 1
		}
		cc.budget, cc.keep = budget, keep
	}
	return cc
}

// account records one successfully installed Result against the budget
// and evicts FIFO past it. Error entries are never accounted (they hold
// no Result) and therefore never evicted — a poisoned key stays poisoned.
func (c *BaselineCache) account(key baselineKey, res *routing.Result) {
	if c.budget <= 0 {
		return
	}
	c.mu.Lock()
	c.bytes += res.MemoryBytes()
	c.order = append(c.order, key)
	for c.bytes > c.budget && len(c.order) > c.keep {
		old := c.order[0]
		c.order = c.order[1:]
		if e := c.m[old]; e != nil && e.res != nil {
			c.bytes -= e.res.MemoryBytes()
			delete(c.m, old)
		}
	}
	// Peak is sampled post-eviction: the resident footprint the budget
	// governs, not the transient insert overshoot. It exceeds budget only
	// when the keep floor alone does.
	if c.bytes > c.peak {
		c.peak = c.bytes
	}
	c.mu.Unlock()
}

// PeakBytes reports the high-watermark of the bytes held by installed
// Results over the cache's lifetime (budgeted caches only; 0 otherwise).
func (c *BaselineCache) PeakBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Get returns the no-attack baseline for origin announcing with λ = lambda
// uniformly to all neighbors, computing it on first request. Concurrent
// callers for the same key block until the single computation finishes and
// then share one Result. Errors are memoized too: a victim whose
// announcement fails to validate fails identically on every retry.
func (c *BaselineCache) Get(origin bgp.ASN, lambda int) (*routing.Result, error) {
	key := baselineKey{origin: origin, lambda: lambda}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &baselineEntry{}
		c.m[key] = e
		c.obs.AddBaselineMisses(1)
	} else {
		c.obs.AddBaselineHits(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = baselineOnly(c.g, core.Scenario{
			Victim:  origin,
			Prepend: lambda,
			// Attacker is irrelevant to the baseline; left zero.
		})
		if e.err == nil {
			c.obs.AddBasePropagations(1)
			c.account(key, e.res)
		}
	})
	return e.res, e.err
}

// Len reports how many distinct baselines have been requested.
func (c *BaselineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
