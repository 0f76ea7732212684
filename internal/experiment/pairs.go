// Package experiment contains the drivers that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index):
// attacker/victim pair sweeps (Figs. 7-8), prepend-count sweeps
// (Figs. 9-12), detection accuracy and latency (Figs. 13-14), the ASPP
// usage survey (Figs. 5-6, via internal/measure), and the Facebook case
// study (Fig. 1 and Table I).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// PairKind selects how attacker/victim pairs are drawn.
type PairKind uint8

const (
	// PairsTier1: both the attacker and the victim are tier-1 ASes
	// (paper Fig. 7).
	PairsTier1 PairKind = iota + 1
	// PairsRandom: both are drawn uniformly from all ASes (paper Fig. 8;
	// most draws land in the stub edge, as in the paper).
	PairsRandom
)

// PairImpact is one hijack instance's outcome.
type PairImpact struct {
	Victim, Attacker       bgp.ASN
	VictimTier, AttackTier int
	// Before/After: fraction of ASes whose path to the victim traverses
	// the attacker without/with the attack.
	Before, After float64
}

// PairConfig parameterizes SamplePairs.
type PairConfig struct {
	Kind    PairKind
	N       int // number of hijack instances
	Prepend int // victim's λ
	Violate bool
	Seed    int64
	Workers int
	// Engine selects the attack-propagation engine (the asppbench
	// -engine ablation). The zero value EngineAuto runs incremental
	// delta propagation against the cached baselines.
	Engine core.EngineKind
	// Counters optionally collects sweep telemetry (propagations per
	// engine, cache hits, skipped draws). One Counters per sweep; nil
	// disables recording.
	Counters *obs.Counters
	// Shards > 0 partitions the candidate space by victim into that many
	// shards, each owning a private byte-budgeted BaselineCache, and
	// dispatches shards across the worker pool (DESIGN §5f). Output is
	// byte-identical to the unsharded path at any shard count. 0 with no
	// MemBudget keeps the legacy shared-cache path.
	Shards int
	// MemBudget caps each shard's baseline-cache bytes (FIFO eviction).
	// MemBudget alone implies one budgeted shard; 0 means unbounded.
	MemBudget int64
}

// SamplePairs simulates cfg.N interception instances with independently
// drawn pairs and returns them ranked by pollution (the paper's Figs. 7-8
// presentation). Pairs where the attacker never receives the route are
// redrawn, up to a generous retry budget.
func SamplePairs(g *topology.Graph, cfg PairConfig) ([]PairImpact, error) {
	return SamplePairsCtx(context.Background(), g, cfg)
}

// SamplePairsCtx is SamplePairs with cooperative cancellation. The sweep
// runs on the allocation-free path: each worker owns one routing.Scratch
// for its whole share of the instances, and baselines are memoized per
// (victim, λ) in a BaselineCache shared read-only across workers. On
// cancellation it returns (nil, ctx.Err()): in-flight instances drain
// deterministically but no partial ranking is produced.
//
// Candidates are drained in chunks of N from one deterministic draw
// stream, stopping as soon as N usable instances exist — with no skipped
// draws the sweep runs ≈N propagations, not the full 20N retry budget
// (the budget only bounds how far redraws may reach). Error contract
// (DESIGN §6): an unreachable attacker is a skippable draw, redrawn from
// the stream and counted; a baseline failure (ErrBaselineFailed) or any
// other propagation error aborts the sweep.
func SamplePairsCtx(ctx context.Context, g *topology.Graph, cfg PairConfig) ([]PairImpact, error) {
	if cfg.N <= 0 {
		return nil, errors.New("experiment: N must be positive")
	}
	if cfg.Prepend < 1 {
		return nil, errors.New("experiment: prepend must be >= 1")
	}
	var pool []bgp.ASN
	switch cfg.Kind {
	case PairsTier1:
		pool = g.Tier1s()
		if len(pool) < 2 {
			return nil, errors.New("experiment: fewer than two tier-1 ASes")
		}
	case PairsRandom:
		pool = g.ASNs()
	default:
		return nil, fmt.Errorf("experiment: unknown pair kind %d", cfg.Kind)
	}

	// Candidates come from one rng stream regardless of chunking, so the
	// k-th candidate is identical whether the sweep simulates one chunk or
	// the whole budget — determinism is in the stream, not the batching.
	rng := rand.New(rand.NewSource(cfg.Seed))
	budget := cfg.N * 20
	var (
		drawn      int
		seen       = make(map[pairDraw]bool, cfg.N)
		maxOrdered = len(pool) * (len(pool) - 1)
		exhausted  bool
	)
	nextChunk := func(size int) []pairDraw {
		chunk := make([]pairDraw, 0, size)
		for len(chunk) < size && drawn < budget && !exhausted {
			v := pool[rng.Intn(len(pool))]
			m := pool[rng.Intn(len(pool))]
			if v == m {
				continue
			}
			p := pairDraw{v, m}
			if cfg.Kind == PairsTier1 && seen[p] {
				continue // tier-1 pool is small; avoid duplicate instances
			}
			seen[p] = true
			chunk = append(chunk, p)
			drawn++
			if cfg.Kind == PairsTier1 && len(seen) == maxOrdered {
				exhausted = true // all ordered tier-1 pairs drawn
			}
		}
		return chunk
	}

	nShards, err := normalizeShards(cfg.Shards, cfg.MemBudget)
	if err != nil {
		return nil, err
	}
	var (
		ss    *shardSet
		cache *BaselineCache
	)
	if nShards > 0 {
		// Sharded path: shard states (and their caches) persist across
		// chunks so repeated victims stay warm; gauges are recorded and
		// caches released when the sweep completes.
		ss = newShardSet(g, nShards, cfg.MemBudget, cfg.Counters)
	} else {
		cache = NewBaselineCacheObs(g, cfg.Counters)
	}
	out := make([]PairImpact, 0, cfg.N)
	for len(out) < cfg.N {
		chunk := nextChunk(cfg.N)
		if len(chunk) == 0 {
			break // retry budget or pair space exhausted
		}
		var (
			results []*PairImpact
			cerr    error
		)
		if ss != nil {
			results, cerr = ss.runPairChunk(ctx, cfg, chunk)
		} else {
			results, cerr = parallel.MapScratchErr(ctx, len(chunk), cfg.Workers, routing.NewScratch,
				func(s *routing.Scratch, i int) (*PairImpact, error) {
					p := chunk[i]
					base, err := cache.Get(p.v, cfg.Prepend)
					if err != nil {
						// Fatal: the failure is per-victim and memoized — it
						// would repeat for every pair sharing this victim.
						return nil, baselineError(p.v, cfg.Prepend, err)
					}
					c, err := core.SimulateCountsEngineObs(g, core.Scenario{
						Victim:            p.v,
						Attacker:          p.m,
						Prepend:           cfg.Prepend,
						ViolateValleyFree: cfg.Violate,
					}, base, s, cfg.Engine, cfg.Counters)
					if routing.Skippable(err) {
						cfg.Counters.AddSkippedUnreachable(1)
						return nil, nil // skippable draw; redrawn from the stream
					}
					if err != nil {
						return nil, fmt.Errorf("pair %v/%v: %w", p.v, p.m, err)
					}
					return &PairImpact{
						Victim:     p.v,
						Attacker:   p.m,
						VictimTier: g.Tier(p.v),
						AttackTier: g.Tier(p.m),
						Before:     c.Before(),
						After:      c.After(),
					}, nil
				})
		}
		if cerr != nil {
			return nil, sweepError("pair sweep", cerr)
		}
		for _, r := range results {
			if r == nil {
				continue
			}
			out = append(out, *r)
			if len(out) == cfg.N {
				break
			}
		}
	}
	if ss != nil {
		ss.finish(cfg.Counters)
	}
	if len(out) < cfg.N {
		return out, fmt.Errorf("experiment: only %d of %d instances usable", len(out), cfg.N)
	}
	// Rank by pollution, descending (the paper's presentation).
	sort.Slice(out, func(a, b int) bool {
		if out[a].After != out[b].After {
			return out[a].After > out[b].After
		}
		if out[a].Victim != out[b].Victim {
			return out[a].Victim < out[b].Victim
		}
		return out[a].Attacker < out[b].Attacker
	})
	return out, nil
}

// SweepPoint is one λ step of a prepend sweep.
type SweepPoint struct {
	Lambda        int
	Before, After float64
}

// SweepPrepend simulates one victim/attacker pair for λ = 1..maxLambda
// (paper Figs. 9-12). Steps run concurrently; results are index-ordered.
func SweepPrepend(g *topology.Graph, victim, attacker bgp.ASN, maxLambda int, violate bool, workers int) ([]SweepPoint, error) {
	return SweepPrependCtx(context.Background(), g, victim, attacker, maxLambda, violate, workers)
}

// SweepPrependCtx is SweepPrepend with cooperative cancellation, running
// each λ step on a worker-owned routing.Scratch with the default engine
// policy. Returns (nil, ctx.Err()) when cancelled.
func SweepPrependCtx(ctx context.Context, g *topology.Graph, victim, attacker bgp.ASN, maxLambda int, violate bool, workers int) ([]SweepPoint, error) {
	return SweepPrependEngineCtx(ctx, g, victim, attacker, maxLambda, violate, workers, core.EngineAuto)
}

// SweepPrependEngineCtx is SweepPrependCtx with an explicit engine choice
// (the asppbench -engine ablation).
func SweepPrependEngineCtx(ctx context.Context, g *topology.Graph, victim, attacker bgp.ASN, maxLambda int, violate bool, workers int, engine core.EngineKind) ([]SweepPoint, error) {
	return SweepPrependCfgCtx(ctx, g, SweepConfig{
		Victim:    victim,
		Attacker:  attacker,
		MaxLambda: maxLambda,
		Violate:   violate,
		Workers:   workers,
		Engine:    engine,
	})
}

// SweepConfig parameterizes SweepPrependCfgCtx.
type SweepConfig struct {
	Victim, Attacker bgp.ASN
	MaxLambda        int
	Violate          bool
	Workers          int
	Engine           core.EngineKind
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
	// Shards > 0 splits λ = 1..MaxLambda into contiguous blocks, one
	// budgeted shard cache per block (DESIGN §5f); output byte-identical
	// at any shard count. MemBudget caps each shard's cache bytes;
	// MemBudget alone implies one budgeted shard.
	Shards    int
	MemBudget int64
}

// SweepPrependCfgCtx simulates one victim/attacker pair for
// λ = 1..MaxLambda. Each λ step's no-attack baseline is memoized per
// (victim, λ) in a BaselineCache and the attack leg is recomputed against
// it — incrementally under the delta engine, which only re-walks the
// attacker's cone. For a single fixed pair there is nothing to redraw, so
// the error contract is all-fatal: any step failing (even an unreachable
// attacker) aborts the sweep with the lowest-λ error.
func SweepPrependCfgCtx(ctx context.Context, g *topology.Graph, cfg SweepConfig) ([]SweepPoint, error) {
	if cfg.MaxLambda < 1 {
		return nil, errors.New("experiment: maxLambda must be >= 1")
	}
	if nShards, err := normalizeShards(cfg.Shards, cfg.MemBudget); err != nil {
		return nil, err
	} else if nShards > 0 {
		return runShardedSweep(ctx, g, cfg, nShards)
	}
	cache := NewBaselineCacheObs(g, cfg.Counters)
	points, cerr := parallel.MapScratchErr(ctx, cfg.MaxLambda, cfg.Workers, routing.NewScratch,
		func(s *routing.Scratch, i int) (SweepPoint, error) {
			base, err := cache.Get(cfg.Victim, i+1)
			if err != nil {
				return SweepPoint{}, baselineError(cfg.Victim, i+1, err)
			}
			c, err := core.SimulateCountsEngineObs(g, core.Scenario{
				Victim:            cfg.Victim,
				Attacker:          cfg.Attacker,
				Prepend:           i + 1,
				ViolateValleyFree: cfg.Violate,
			}, base, s, cfg.Engine, cfg.Counters)
			if err != nil {
				return SweepPoint{}, fmt.Errorf("λ=%d: %w", i+1, err)
			}
			return SweepPoint{Lambda: i + 1, Before: c.Before(), After: c.After()}, nil
		})
	if cerr != nil {
		return nil, sweepError(fmt.Sprintf("sweep %v/%v", cfg.Victim, cfg.Attacker), cerr)
	}
	return points, nil
}

// PickTier1ByDegree returns the rank-th highest-degree tier-1 AS (0 = the
// largest), for the paper's named-AS scenarios ("Sprint hijacks AT&T").
func PickTier1ByDegree(g *topology.Graph, rank int) (bgp.ASN, error) {
	// Tier1s returns shared read-only storage; copy before reordering.
	t1 := append([]bgp.ASN(nil), g.Tier1s()...)
	if len(t1) == 0 {
		return 0, errors.New("experiment: no tier-1 ASes")
	}
	sort.Slice(t1, func(a, b int) bool {
		da, db := g.Degree(t1[a]), g.Degree(t1[b])
		if da != db {
			return da > db
		}
		return t1[a] < t1[b]
	})
	if rank >= len(t1) {
		rank = len(t1) - 1
	}
	return t1[rank], nil
}

// PickContentStub returns the multihomed stub AS with the most peering
// links — the "small but well-connected enterprise ISP" (Facebook) of the
// paper's Figs. 10-11. Multihoming matters for the attacker role: with a
// single provider the bogus route loops back to its own upstream and dies.
func PickContentStub(g *topology.Graph) (bgp.ASN, error) {
	var best bgp.ASN
	bestKey := [2]int{-1, -1} // (multihomed, peers), lexicographic
	for _, asn := range g.ASNs() {
		if !g.IsStub(asn) || g.Tier(asn) == 1 {
			continue
		}
		multi := 0
		if len(g.Providers(asn)) >= 2 {
			multi = 1
		}
		key := [2]int{multi, len(g.Peers(asn))}
		if key[0] > bestKey[0] ||
			(key[0] == bestKey[0] && key[1] > bestKey[1]) ||
			(key == bestKey && asn < best) {
			best, bestKey = asn, key
		}
	}
	if best == 0 {
		return 0, errors.New("experiment: no stub ASes")
	}
	return best, nil
}

// PickStub returns a deterministic pseudo-random multi-provider stub,
// skipping the content stub, for the small-vs-small scenario (Fig. 12).
func PickStub(g *topology.Graph, seed int64) (bgp.ASN, error) {
	var stubs []bgp.ASN
	content, err := PickContentStub(g)
	if err != nil {
		// No stub exists at all, so the filtered pool below is empty too;
		// fail with the cause instead of masking it.
		return 0, fmt.Errorf("experiment: picking stub: %w", err)
	}
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && g.Tier(asn) > 1 && asn != content && len(g.Providers(asn)) >= 2 {
			stubs = append(stubs, asn)
		}
	}
	if len(stubs) == 0 {
		return 0, errors.New("experiment: no multihomed stubs")
	}
	rng := rand.New(rand.NewSource(seed))
	return stubs[rng.Intn(len(stubs))], nil
}
