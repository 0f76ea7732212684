package experiment

import (
	"context"
	"fmt"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// Sharded sweeps (DESIGN §5f). At Internet scale (n ≈ 80k) the sweep
// working set, not propagation speed, is the binding constraint: a shared
// BaselineCache holds one ~0.9 MB Result per distinct (victim, λ) for the
// whole sweep — O(victims × n) bytes. The shard layer partitions the
// candidate space by VICTIM (every candidate of a victim lands in one
// shard, so each baseline is still computed once), gives each shard a
// private byte-budgeted BaselineCache plus persistent scratch state, and
// dispatches shards across the worker pool with parallel.ForEachErr.
// Results are written index-addressed into the caller's candidate-order
// storage, so the merged output — and therefore the TSV — is
// byte-identical to the unsharded path (pinned by the shard-count
// invariance differential).
//
// Error contract: within a shard, candidates run in deterministic order
// and the first failure aborts the shard; across shards ForEachErr
// returns the lowest-SHARD-INDEX error. This differs from the unsharded
// path's lowest-candidate-index error only in which of several
// concurrent failures is reported — both are deterministic under any
// scheduling. Cancellation is checked between candidates, so a shard
// abandons mid-work (the mid-shard cancellation test).
//
// Memory model: one sweep resident set ≈ CSR graph (shared read-only) +
// shards × (cache budget + scratch). The cache_bytes gauge records the
// largest single shard's cache peak; scratch_bytes the largest shard's
// scratch state. The scale-smoke gate asserts cache_bytes <= MemBudget.

// normalizeShards resolves the (Shards, MemBudget) configuration pair:
// Shards > 0 turns sharding on; MemBudget alone implies one budgeted
// shard; both zero selects the legacy unsharded path.
func normalizeShards(shards int, memBudget int64) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("experiment: shards must be >= 0, got %d", shards)
	}
	if memBudget < 0 {
		return 0, fmt.Errorf("experiment: mem budget must be >= 0, got %d", memBudget)
	}
	if shards == 0 && memBudget > 0 {
		return 1, nil
	}
	return shards, nil
}

// shardOf assigns a victim to a shard by FNV-1a hash — stable across
// runs, independent of draw order, and spreading the hot tier-1 victims
// instead of clustering them the way a range split would.
func shardOf(v bgp.ASN, nShards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	x := uint32(v)
	for s := 0; s < 32; s += 8 {
		h = (h ^ uint64(byte(x>>s))) * prime64
	}
	return int(h % uint64(nShards))
}

// shardState is one shard's private, persistent working state: a
// byte-budgeted baseline cache and the Scratch its attack legs run on.
// Single-goroutine by construction — ForEachErr hands each shard index
// to exactly one worker, and successive chunks reusing the state are
// ordered by the fan-out's completion barrier.
type shardState struct {
	cache *BaselineCache
	s     *routing.Scratch
}

// shardSet is the per-sweep collection of shard states.
type shardSet struct {
	g      *topology.Graph
	states []*shardState
}

// newShardSet builds nShards shard states for a sweep over g.
func newShardSet(g *topology.Graph, nShards int, memBudget int64, c *obs.Counters) *shardSet {
	ss := &shardSet{g: g, states: make([]*shardState, nShards)}
	for i := range ss.states {
		ss.states[i] = &shardState{
			cache: NewBaselineCacheBudget(g, c, memBudget, 1),
			s:     routing.NewScratch(),
		}
	}
	c.RecordCSRBytes(g.MemoryBytes())
	return ss
}

// recordGauges samples this shard's high-watermarks into the sweep
// counters: sampled at shard completion, a deterministic point, so the
// reported values do not depend on scheduling.
func (st *shardState) recordGauges(c *obs.Counters) {
	c.RecordCacheBytes(st.cache.PeakBytes())
	c.RecordScratchBytes(st.s.MemoryBytes())
}

// finish releases every shard cache (recording gauges first) — the
// end-of-sweep half of the release-after-shard lifecycle for drivers
// whose shards persist across chunks.
func (ss *shardSet) finish(c *obs.Counters) {
	for _, st := range ss.states {
		st.recordGauges(c)
		st.cache.Release()
	}
}

// pairDraw is one (victim, attacker) candidate of a pair sweep.
type pairDraw struct{ v, m bgp.ASN }

// runPairChunk executes one candidate chunk of a sharded pair sweep:
// candidates partition by victim shard, shards fan out across the
// worker pool, and results land index-addressed in candidate order —
// exactly the slots the unsharded paths fill.
func (ss *shardSet) runPairChunk(ctx context.Context, cfg PairConfig, chunk []pairDraw) ([]*PairImpact, error) {
	results := make([]*PairImpact, len(chunk))
	perShard := make([][]int, len(ss.states))
	for ci, p := range chunk {
		si := shardOf(p.v, len(ss.states))
		perShard[si] = append(perShard[si], ci)
	}
	err := parallel.ForEachErr(ctx, len(ss.states), cfg.Workers, func(si int) error {
		return ss.states[si].pairShard(ctx, ss.g, cfg, chunk, perShard[si], results)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// pairShard runs one shard's share of a chunk. Candidates are grouped by
// victim (stably, so equal victims keep their draw order), so the FIFO
// cache evicts a victim's baseline only after all its candidates ran.
func (st *shardState) pairShard(ctx context.Context, g *topology.Graph, cfg PairConfig, chunk []pairDraw, cis []int, results []*PairImpact) error {
	sort.SliceStable(cis, func(a, b int) bool { return chunk[cis[a]].v < chunk[cis[b]].v })
	for _, ci := range cis {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := chunk[ci]
		base, err := st.cache.Get(p.v, cfg.Prepend)
		if err != nil {
			// Fatal: the failure is per-victim and memoized — it would
			// repeat for every pair sharing this victim.
			return baselineError(p.v, cfg.Prepend, err)
		}
		c, err := core.SimulateCountsEngineObs(g, core.Scenario{
			Victim:            p.v,
			Attacker:          p.m,
			Prepend:           cfg.Prepend,
			ViolateValleyFree: cfg.Violate,
		}, base, st.s, cfg.Engine, cfg.Counters)
		if routing.Skippable(err) {
			cfg.Counters.AddSkippedUnreachable(1)
			continue // skippable draw; redrawn from the stream
		}
		if err != nil {
			return fmt.Errorf("pair %v/%v: %w", p.v, p.m, err)
		}
		results[ci] = &PairImpact{
			Victim:     p.v,
			Attacker:   p.m,
			VictimTier: g.Tier(p.v),
			AttackTier: g.Tier(p.m),
			Before:     c.Before(),
			After:      c.After(),
		}
	}
	return nil
}

// runShardedSweep executes a sharded λ sweep: shards own contiguous λ
// blocks (shard 0 the lowest), preserving the all-fatal contract's
// lowest-λ flavor — the lowest shard's error is the lowest-λ error when
// several fail. Points land index-addressed, so output is byte-identical
// to the unsharded path.
func runShardedSweep(ctx context.Context, g *topology.Graph, cfg SweepConfig, nShards int) ([]SweepPoint, error) {
	if nShards > cfg.MaxLambda {
		nShards = cfg.MaxLambda
	}
	ss := newShardSet(g, nShards, cfg.MemBudget, cfg.Counters)
	block := (cfg.MaxLambda + nShards - 1) / nShards
	points := make([]SweepPoint, cfg.MaxLambda)
	err := parallel.ForEachErr(ctx, nShards, cfg.Workers, func(si int) error {
		loLambda := si*block + 1
		hiLambda := min(loLambda+block-1, cfg.MaxLambda)
		if loLambda > hiLambda {
			return nil
		}
		return ss.states[si].sweepShard(ctx, g, cfg, loLambda, hiLambda, points)
	})
	ss.finish(cfg.Counters)
	if err != nil {
		return nil, sweepError(fmt.Sprintf("sweep %v/%v", cfg.Victim, cfg.Attacker), err)
	}
	return points, nil
}

// sweepShard runs λ = lo..hi of a sharded prepend sweep in ascending
// order (all-fatal: the first failing λ aborts the shard).
func (st *shardState) sweepShard(ctx context.Context, g *topology.Graph, cfg SweepConfig, lo, hi int, points []SweepPoint) error {
	for l := lo; l <= hi; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		base, err := st.cache.Get(cfg.Victim, l)
		if err != nil {
			return baselineError(cfg.Victim, l, err)
		}
		c, err := core.SimulateCountsEngineObs(g, core.Scenario{
			Victim:            cfg.Victim,
			Attacker:          cfg.Attacker,
			Prepend:           l,
			ViolateValleyFree: cfg.Violate,
		}, base, st.s, cfg.Engine, cfg.Counters)
		if err != nil {
			return fmt.Errorf("λ=%d: %w", l, err)
		}
		points[l-1] = SweepPoint{Lambda: l, Before: c.Before(), After: c.After()}
	}
	return nil
}

// susJob is one pre-drawn susceptibility instance.
type susJob struct {
	vTier, aTier int
	v, m         bgp.ASN
}

// runShardedSusceptibility fills fractions (index-addressed, -1 = skip)
// for the pre-drawn jobs: jobs partition by victim shard, and each
// shard's cache is released as soon as the shard completes — the full
// release-after-shard lifecycle, since every job runs exactly once.
func runShardedSusceptibility(ctx context.Context, g *topology.Graph, cfg SusceptibilityConfig, nShards int, jobs []susJob) ([]float64, error) {
	ss := newShardSet(g, nShards, cfg.MemBudget, cfg.Counters)
	fractions := make([]float64, len(jobs))
	for i := range fractions {
		fractions[i] = -1
	}
	perShard := make([][]int, nShards)
	for i, j := range jobs {
		si := shardOf(j.v, nShards)
		perShard[si] = append(perShard[si], i)
	}
	err := parallel.ForEachErr(ctx, nShards, cfg.Workers, func(si int) error {
		st := ss.states[si]
		serr := st.susShard(ctx, g, cfg, jobs, perShard[si], fractions)
		st.recordGauges(cfg.Counters)
		st.cache.Release()
		return serr
	})
	if err != nil {
		return nil, sweepError("susceptibility sweep", err)
	}
	return fractions, nil
}

// susShard runs one shard's share of the susceptibility jobs, grouped by
// victim exactly as pairShard groups candidates.
func (st *shardState) susShard(ctx context.Context, g *topology.Graph, cfg SusceptibilityConfig, jobs []susJob, jis []int, fractions []float64) error {
	sort.SliceStable(jis, func(a, b int) bool { return jobs[jis[a]].v < jobs[jis[b]].v })
	for _, ji := range jis {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := jobs[ji]
		base, err := st.cache.Get(j.v, cfg.Prepend)
		if err != nil {
			return baselineError(j.v, cfg.Prepend, err)
		}
		c, err := core.SimulateCountsEngineObs(g, core.Scenario{
			Victim:            j.v,
			Attacker:          j.m,
			Prepend:           cfg.Prepend,
			ViolateValleyFree: cfg.Violate,
		}, base, st.s, cfg.Engine, cfg.Counters)
		if routing.Skippable(err) {
			cfg.Counters.AddSkippedUnreachable(1)
			continue // skippable draw; the cell oversamples
		}
		if err != nil {
			return fmt.Errorf("pair %v/%v: %w", j.v, j.m, err)
		}
		fractions[ji] = c.After()
	}
	return nil
}
