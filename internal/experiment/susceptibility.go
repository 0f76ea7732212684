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
// cancellation. All instances are drawn up front and run through the
// sweep executor, so each victim's baseline is computed once and shared
// by its instances across cells (victims repeat heavily). Returns
// (nil, ctx.Err()) when cancelled.
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
	fractions := make([]float64, len(jobs))
	err := runLegs(ctx, g, cfg.Workers, cfg.Counters, len(jobs),
		func(i int) baselineKey { return baselineKey{jobs[i].v, cfg.Prepend} },
		func(s *routing.Scratch, base *routing.Result, i int) error {
			fractions[i] = -1
			c, err := core.SimulateCountsEngineObs(g, core.Scenario{
				Victim:            jobs[i].v,
				Attacker:          jobs[i].m,
				Prepend:           cfg.Prepend,
				ViolateValleyFree: cfg.Violate,
			}, base, s, cfg.Engine, cfg.Counters)
			if skipped(err, cfg.Counters) {
				return nil // the cell oversamples
			}
			if err != nil {
				return fmt.Errorf("pair %v/%v: %w", jobs[i].v, jobs[i].m, err)
			}
			fractions[i] = c.After()
			return nil
		})
	if err != nil {
		return nil, sweepError("susceptibility sweep", err)
	}
	return susCells(cfg, jobs, fractions)
}

// susJob is one pre-drawn susceptibility instance.
type susJob struct {
	vTier, aTier int
	v, m         bgp.ASN
}

// susCells aggregates per-job pollution fractions (-1 = unusable draw)
// into the sorted tier matrix, capping each cell at PairsPerCell in job
// order.
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
