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
}

// SamplePairs simulates cfg.N interception instances with independently
// drawn pairs and returns them ranked by pollution (the paper's Figs. 7-8
// presentation). Pairs where the attacker never receives the route are
// redrawn, up to a generous retry budget.
func SamplePairs(g *topology.Graph, cfg PairConfig) ([]PairImpact, error) {
	return SamplePairsCtx(context.Background(), g, cfg)
}

// SamplePairsCtx is SamplePairs with cooperative cancellation. The
// attack legs run through the sweep executor (runLegs): each worker owns
// one routing.Scratch, and each (victim, λ) baseline is computed once per
// chunk and shared read-only by that victim's legs. On cancellation it
// returns (nil, ctx.Err()): in-flight legs drain deterministically but no
// partial ranking is produced.
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
	var draws *pairStream
	switch cfg.Kind {
	case PairsTier1:
		pool := g.Tier1s()
		if len(pool) < 2 {
			return nil, errors.New("experiment: fewer than two tier-1 ASes")
		}
		// The tier-1 pool is small: draw each ordered pair at most once.
		draws = newPairStream(pool, cfg.Seed, cfg.N*20, true)
	case PairsRandom:
		draws = newPairStream(g.ASNs(), cfg.Seed, cfg.N*20, false)
	default:
		return nil, fmt.Errorf("experiment: unknown pair kind %d", cfg.Kind)
	}

	out := make([]PairImpact, 0, cfg.N)
	for len(out) < cfg.N {
		chunk := draws.next(cfg.N)
		if len(chunk) == 0 {
			break // retry budget or pair space exhausted
		}
		results := make([]*PairImpact, len(chunk))
		err := runLegs(ctx, g, cfg.Workers, cfg.Counters, len(chunk), chunkKey(chunk, cfg.Prepend),
			func(s *routing.Scratch, base *routing.Result, i int) error {
				p := chunk[i]
				c, err := core.SimulateCountsEngineObs(g, core.Scenario{
					Victim:            p.v,
					Attacker:          p.m,
					Prepend:           cfg.Prepend,
					ViolateValleyFree: cfg.Violate,
				}, base, s, cfg.Engine, cfg.Counters)
				if skipped(err, cfg.Counters) {
					return nil // redrawn from the stream
				}
				if err != nil {
					return fmt.Errorf("pair %v/%v: %w", p.v, p.m, err)
				}
				results[i] = &PairImpact{
					Victim:     p.v,
					Attacker:   p.m,
					VictimTier: g.Tier(p.v),
					AttackTier: g.Tier(p.m),
					Before:     c.Before(),
					After:      c.After(),
				}
				return nil
			})
		if err != nil {
			return nil, sweepError("pair sweep", err)
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

// pairDraw is one (victim, attacker) candidate of a pair-drawing sweep.
type pairDraw struct{ v, m bgp.ASN }

// pairStream is the candidate stream shared by the pair-drawing sweeps
// (SamplePairs, RunDetection, CompareAttackTypes): victim then attacker
// uniform over pool from one rng, self-pairs rejected. Because every
// candidate comes from the one stream, the k-th candidate is the same
// whether a sweep drains one chunk or the whole budget — determinism is
// in the stream, not the chunking.
type pairStream struct {
	rng    *rand.Rand
	pool   []bgp.ASN
	budget int // candidates the stream may yield in total
	drawn  int
	// seen is non-nil for a distinct-pairs stream, which yields each
	// ordered pair at most once and ends when all have been drawn.
	seen map[pairDraw]bool
}

func newPairStream(pool []bgp.ASN, seed int64, budget int, distinct bool) *pairStream {
	ps := &pairStream{rng: rand.New(rand.NewSource(seed)), pool: pool, budget: budget}
	if distinct {
		ps.seen = make(map[pairDraw]bool)
	}
	return ps
}

// next draws up to size candidates; an empty chunk means the stream is
// spent (retry budget reached or, for a distinct stream, every ordered
// pair drawn).
func (ps *pairStream) next(size int) []pairDraw {
	chunk := make([]pairDraw, 0, size)
	n := len(ps.pool)
	if n < 2 {
		return chunk
	}
	for len(chunk) < size && ps.drawn < ps.budget {
		if ps.seen != nil && len(ps.seen) == n*(n-1) {
			break
		}
		p := pairDraw{ps.pool[ps.rng.Intn(n)], ps.pool[ps.rng.Intn(n)]}
		if p.v == p.m {
			continue
		}
		if ps.seen != nil {
			if ps.seen[p] {
				continue
			}
			ps.seen[p] = true
		}
		chunk = append(chunk, p)
		ps.drawn++
	}
	return chunk
}

// chunkKey keys each candidate's leg by its victim's λ-prepended baseline.
func chunkKey(chunk []pairDraw, lambda int) func(int) baselineKey {
	return func(i int) baselineKey { return baselineKey{chunk[i].v, lambda} }
}

// SweepPoint is one λ step of a prepend sweep.
type SweepPoint struct {
	Lambda        int
	Before, After float64
}

// SweepPrepend simulates one victim/attacker pair for λ = 1..maxLambda
// (paper Figs. 9-12) with the default engine; results are λ-ordered.
func SweepPrepend(g *topology.Graph, victim, attacker bgp.ASN, maxLambda int, violate bool, workers int) ([]SweepPoint, error) {
	return SweepPrependCfgCtx(context.Background(), g, SweepConfig{
		Victim:    victim,
		Attacker:  attacker,
		MaxLambda: maxLambda,
		Violate:   violate,
		Workers:   workers,
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
}

// SweepPrependCfgCtx simulates one victim/attacker pair for
// λ = 1..MaxLambda, with cooperative cancellation. Every λ is its own
// baseline, so the executor runs the λ steps in parallel, each attack
// leg recomputed against its step's baseline — incrementally under the
// delta engine, which only re-walks the attacker's cone. For a single
// fixed pair there is nothing to redraw, so the error contract is
// all-fatal: any step failing (even an unreachable attacker) aborts the
// sweep with the lowest-λ error. Returns (nil, ctx.Err()) when cancelled.
func SweepPrependCfgCtx(ctx context.Context, g *topology.Graph, cfg SweepConfig) ([]SweepPoint, error) {
	if cfg.MaxLambda < 1 {
		return nil, errors.New("experiment: maxLambda must be >= 1")
	}
	points := make([]SweepPoint, cfg.MaxLambda)
	err := runLegs(ctx, g, cfg.Workers, cfg.Counters, cfg.MaxLambda,
		func(i int) baselineKey { return baselineKey{cfg.Victim, i + 1} },
		func(s *routing.Scratch, base *routing.Result, i int) error {
			c, err := core.SimulateCountsEngineObs(g, core.Scenario{
				Victim:            cfg.Victim,
				Attacker:          cfg.Attacker,
				Prepend:           i + 1,
				ViolateValleyFree: cfg.Violate,
			}, base, s, cfg.Engine, cfg.Counters)
			if err != nil {
				return fmt.Errorf("λ=%d: %w", i+1, err)
			}
			points[i] = SweepPoint{Lambda: i + 1, Before: c.Before(), After: c.After()}
			return nil
		})
	if err != nil {
		return nil, sweepError(fmt.Sprintf("sweep %v/%v", cfg.Victim, cfg.Attacker), err)
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
