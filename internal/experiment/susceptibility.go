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

// TierCell aggregates attack outcomes for one (victim tier, attacker
// tier) combination — the paper's §VI-B question "what type of ASes are
// likely to be hijacked", answered as a matrix.
type TierCell struct {
	VictimTier, AttackerTier int
	Instances                int
	// MeanPollution over the cell's instances; MaxPollution its worst case.
	MeanPollution, MaxPollution float64
}

// SusceptibilityConfig parameterizes the tier matrix experiment.
type SusceptibilityConfig struct {
	// PairsPerCell is the target number of instances per tier pair.
	PairsPerCell int
	// MaxTier groups every tier >= MaxTier into one "edge" bucket.
	MaxTier int
	Prepend int
	Violate bool
	Seed    int64
	Workers int
	// Engine selects the attack-propagation engine; the zero value
	// EngineAuto runs delta propagation against the cached baselines.
	Engine core.EngineKind
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
	// Shards > 0 partitions the jobs by victim into that many shards,
	// each owning a private byte-budgeted BaselineCache released as soon
	// as its shard completes (DESIGN §5f); output byte-identical at any
	// shard count. MemBudget caps each shard's cache bytes; MemBudget
	// alone implies one budgeted shard.
	Shards    int
	MemBudget int64
}

// DefaultSusceptibilityConfig returns the calibrated setup. The matrix
// runs the rule-following attacker: the paper's §VI-B resilience claims
// ("victims closer to the core of the Internet would have more
// resilience") hold in the valley-free regime, while a violating attacker
// levels the field (the tier-1 peer mesh re-exports the bogus route to
// everyone regardless of the victim's position).
func DefaultSusceptibilityConfig() SusceptibilityConfig {
	return SusceptibilityConfig{
		PairsPerCell: 12,
		MaxTier:      3,
		Prepend:      3,
		Seed:         1,
	}
}

// SusceptibilityMatrix samples attacker/victim pairs for every tier
// combination and reports pollution statistics per cell, sorted by
// (victim tier, attacker tier). Victims closer to the core prove more
// resilient; attackers closer to the core prove more effective — the
// paper's §VI-B findings.
func SusceptibilityMatrix(g *topology.Graph, cfg SusceptibilityConfig) ([]TierCell, error) {
	return SusceptibilityMatrixCtx(context.Background(), g, cfg)
}

// SusceptibilityMatrixCtx is SusceptibilityMatrix with cooperative
// cancellation, running on worker-owned routing.Scratch state with
// (victim, λ) baselines memoized in a shared BaselineCache (victims repeat
// heavily across cells). Returns (nil, ctx.Err()) when cancelled.
func SusceptibilityMatrixCtx(ctx context.Context, g *topology.Graph, cfg SusceptibilityConfig) ([]TierCell, error) {
	if cfg.PairsPerCell <= 0 || cfg.MaxTier < 2 || cfg.Prepend < 1 {
		return nil, errors.New("experiment: bad susceptibility config")
	}
	// Bucket ASes by (capped) tier.
	byTier := make(map[int][]bgp.ASN)
	for _, asn := range g.ASNs() {
		t := g.Tier(asn)
		if t > cfg.MaxTier {
			t = cfg.MaxTier
		}
		byTier[t] = append(byTier[t], asn)
	}
	tiers := make([]int, 0, len(byTier))
	for t := range byTier {
		tiers = append(tiers, t)
	}
	sort.Ints(tiers)

	rng := rand.New(rand.NewSource(cfg.Seed))
	var jobs []susJob
	for _, vt := range tiers {
		for _, at := range tiers {
			vPool, aPool := byTier[vt], byTier[at]
			if len(vPool) == 0 || len(aPool) == 0 {
				continue
			}
			// Oversample: some draws are unusable (unreachable attacker).
			for k := 0; k < cfg.PairsPerCell*4; k++ {
				v := vPool[rng.Intn(len(vPool))]
				m := aPool[rng.Intn(len(aPool))]
				if v != m {
					jobs = append(jobs, susJob{vTier: vt, aTier: at, v: v, m: m})
				}
			}
		}
	}
	nShards, err := normalizeShards(cfg.Shards, cfg.MemBudget)
	if err != nil {
		return nil, err
	}
	if nShards > 0 {
		fractions, err := runShardedSusceptibility(ctx, g, cfg, nShards, jobs)
		if err != nil {
			return nil, err
		}
		return susCells(cfg, jobs, fractions)
	}
	cache := NewBaselineCacheObs(g, cfg.Counters)
	fractions, cerr := parallel.MapScratchErr(ctx, len(jobs), cfg.Workers, routing.NewScratch,
		func(s *routing.Scratch, i int) (float64, error) {
			base, err := cache.Get(jobs[i].v, cfg.Prepend)
			if err != nil {
				return -1, baselineError(jobs[i].v, cfg.Prepend, err)
			}
			c, err := core.SimulateCountsEngineObs(g, core.Scenario{
				Victim:            jobs[i].v,
				Attacker:          jobs[i].m,
				Prepend:           cfg.Prepend,
				ViolateValleyFree: cfg.Violate,
			}, base, s, cfg.Engine, cfg.Counters)
			if routing.Skippable(err) {
				cfg.Counters.AddSkippedUnreachable(1)
				return -1, nil // skippable draw; the cell oversamples
			}
			if err != nil {
				return -1, fmt.Errorf("pair %v/%v: %w", jobs[i].v, jobs[i].m, err)
			}
			return c.After(), nil
		})
	if cerr != nil {
		return nil, sweepError("susceptibility sweep", cerr)
	}
	return susCells(cfg, jobs, fractions)
}

// susCells aggregates per-job pollution fractions (-1 = unusable draw)
// into the sorted tier matrix, capping each cell at PairsPerCell in job
// order — shared by the sharded and unsharded paths, so the aggregation
// cannot drift between them.
func susCells(cfg SusceptibilityConfig, jobs []susJob, fractions []float64) ([]TierCell, error) {
	cells := make(map[[2]int]*TierCell)
	for i, f := range fractions {
		if f < 0 {
			continue
		}
		key := [2]int{jobs[i].vTier, jobs[i].aTier}
		c := cells[key]
		if c == nil {
			c = &TierCell{VictimTier: key[0], AttackerTier: key[1]}
			cells[key] = c
		}
		if c.Instances >= cfg.PairsPerCell {
			continue
		}
		c.Instances++
		c.MeanPollution += f
		if f > c.MaxPollution {
			c.MaxPollution = f
		}
	}
	out := make([]TierCell, 0, len(cells))
	for _, c := range cells {
		if c.Instances > 0 {
			c.MeanPollution /= float64(c.Instances)
		}
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].VictimTier != out[b].VictimTier {
			return out[a].VictimTier < out[b].VictimTier
		}
		return out[a].AttackerTier < out[b].AttackerTier
	})
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no usable susceptibility instances")
	}
	return out, nil
}
