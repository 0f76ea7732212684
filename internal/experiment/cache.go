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
// (origin, λ). The sweep drivers draw many attacker/victim pairs from a
// small pool, so the same victim announcement is re-propagated over and
// over; the cache computes each baseline exactly once and shares the
// Result read-only across workers.
//
// Invalidation rule: there is none. A cache is bound to one immutable
// Graph for its whole lifetime — entries can never go stale because
// neither the topology nor an entry's (origin, λ) announcement can
// change. Never reuse a cache across graphs; build a new one per sweep
// (they are cheap: an empty map).
//
// The cached Results are shared: callers must treat them as read-only and
// must not attach them to anything that mutates them (attack propagation
// writes only to its own result slot, so SimulateWithBaseline and
// SimulateCounts are safe consumers).
//
// Only plain scenarios are cacheable: the key cannot represent
// per-neighbor prepending or withheld sessions, so callers with such
// scenarios must bypass the cache (pass a nil baseline downstream).
type BaselineCache struct {
	g   *topology.Graph
	obs *obs.Counters
	mu  sync.Mutex
	m   map[baselineKey]*baselineEntry

	// Byte-budgeted mode (sharded sweeps, DESIGN §5f). budget == 0 means
	// unbounded — the legacy shared cache. In budgeted mode the cache
	// tracks the bytes of successfully installed Results (order records
	// insertion order) and evicts FIFO down to budget whenever an insert
	// exceeds it, always retaining at least the keep newest entries (so
	// the entry just installed survives its own insert). Eviction
	// deletes the map entry only: outstanding *Result pointers held by
	// callers stay valid (a Result is immutable), the victim is merely
	// recomputed — and re-counted as a miss — if requested again. peak
	// is the high-watermark the cache_bytes gauge reports; it survives
	// Release.
	//
	// A budgeted cache is meant for single-goroutine (shard-local) use:
	// the accounting assumes the goroutine that creates an entry is the
	// one that computes it.
	budget int64
	keep   int
	bytes  int64
	peak   int64
	order  []baselineKey
}

// baselineOnly computes one cache entry. It is a package variable only so
// fault-injection tests can force a deterministic per-victim baseline
// failure; production code never reassigns it.
var baselineOnly = core.BaselineOnly

type baselineKey struct {
	origin bgp.ASN
	lambda int
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

// NewBaselineCacheBudget returns a byte-budgeted cache for shard-local
// use: once the installed Results exceed budget bytes the oldest entries
// are evicted FIFO, always retaining at least the keep newest (keep is
// clamped to >= 1). budget <= 0 means unbounded, identical to
// NewBaselineCacheObs.
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

// Bytes reports the bytes currently held by installed Results (budgeted
// caches only; 0 otherwise).
func (c *BaselineCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// PeakBytes reports the high-watermark of Bytes over the cache's
// lifetime — the value the cache_bytes gauge records. It survives
// Release so a shard can be audited after its cache is dropped.
func (c *BaselineCache) PeakBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Release drops every entry, returning the cache to empty (the
// release-after-shard lifecycle). PeakBytes is retained.
func (c *BaselineCache) Release() {
	c.mu.Lock()
	c.m = make(map[baselineKey]*baselineEntry)
	c.order = nil
	c.bytes = 0
	c.mu.Unlock()
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
