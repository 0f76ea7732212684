package experiment

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/core"
	"aspp/internal/measure"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// TestSamplePairsPropagationBudget pins the chunked-draining fix: a
// random-pair sweep must run about N attack propagations, not the full
// 20N retry budget the old code always simulated. Skippable draws are
// accounted for, so propagations + skips stays within one extra chunk.
func TestSamplePairsPropagationBudget(t *testing.T) {
	g := expGraph(t, 300, 32)
	c := new(obs.Counters)
	cfg := PairConfig{Kind: PairsRandom, N: 15, Prepend: 3, Seed: 9, Workers: 4, Counters: c}
	pairs, err := SamplePairs(g, cfg)
	if err != nil {
		t.Fatalf("SamplePairs: %v", err)
	}
	if len(pairs) != cfg.N {
		t.Fatalf("got %d pairs, want %d", len(pairs), cfg.N)
	}
	s := c.Snapshot()
	attacks := s.AttackPropagations()
	if attacks < int64(cfg.N) {
		t.Fatalf("AttackPropagations=%d, want >= N=%d", attacks, cfg.N)
	}
	// Each chunk is N candidates; a usable sweep should need at most two
	// chunks, i.e. far below the 20N budget the old code burned.
	if total := attacks + s.SkippedUnreachable; total > int64(2*cfg.N) {
		t.Fatalf("attacks+skips=%d, want <= 2N=%d (overcompute regression)", total, 2*cfg.N)
	}
	// The default engine runs delta propagation against cached baselines.
	if s.DeltaPropagations == 0 {
		t.Fatal("DeltaPropagations=0, want delta engine active under EngineAuto")
	}
	if s.BaselineMisses == 0 {
		t.Fatal("BaselineMisses=0, want at least one baseline computed")
	}
	if s.BasePropagations != s.BaselineMisses {
		t.Fatalf("BasePropagations=%d, BaselineMisses=%d; every miss computes exactly one baseline",
			s.BasePropagations, s.BaselineMisses)
	}
}

// TestSweepPrependCounters: a fixed-pair λ sweep computes exactly one
// baseline and one attack propagation per λ, with no skips.
func TestSweepPrependCounters(t *testing.T) {
	g := expGraph(t, 300, 32)
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	c := new(obs.Counters)
	const maxLambda = 5
	points, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
		Victim: t1[0], Attacker: t1[1], MaxLambda: maxLambda, Workers: 2, Counters: c,
	})
	if err != nil {
		t.Fatalf("SweepPrependCfgCtx: %v", err)
	}
	if len(points) != maxLambda {
		t.Fatalf("got %d points, want %d", len(points), maxLambda)
	}
	s := c.Snapshot()
	if s.BaselineMisses != maxLambda || s.BasePropagations != maxLambda {
		t.Fatalf("baselines: misses=%d props=%d, want %d each (one per λ)",
			s.BaselineMisses, s.BasePropagations, maxLambda)
	}
	if s.AttackPropagations() != maxLambda {
		t.Fatalf("AttackPropagations=%d, want %d (one per λ)", s.AttackPropagations(), maxLambda)
	}
	if s.SkippedUnreachable != 0 {
		t.Fatalf("SkippedUnreachable=%d, want 0 for a fixed tier-1 pair", s.SkippedUnreachable)
	}
}

// TestSamplePairsBaselineFailureFatal pins the error-conflation fix: a
// baseline computation failure must abort the sweep with ErrBaselineFailed,
// not be treated as a redrawable instance. The old code redrew it, which
// silently shrank the sample (the failure is memoized per victim, so every
// retry for that victim failed again).
func TestSamplePairsBaselineFailureFatal(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := baselineOnly
	defer func() { baselineOnly = orig }()
	baselineOnly = func(*topology.Graph, core.Scenario) (*routing.Result, error) {
		return nil, fmt.Errorf("injected baseline fault")
	}
	_, err := SamplePairs(g, PairConfig{Kind: PairsRandom, N: 10, Prepend: 3, Seed: 9, Workers: 4})
	if err == nil {
		t.Fatal("baseline failure silently swallowed")
	}
	if !errors.Is(err, ErrBaselineFailed) {
		t.Fatalf("err=%v, want errors.Is(..., ErrBaselineFailed)", err)
	}
}

// TestSweepPrependBaselineFailureFatal: same contract for the λ sweep.
func TestSweepPrependBaselineFailureFatal(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := baselineOnly
	defer func() { baselineOnly = orig }()
	baselineOnly = func(*topology.Graph, core.Scenario) (*routing.Result, error) {
		return nil, fmt.Errorf("injected baseline fault")
	}
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	_, err := SweepPrepend(g, t1[0], t1[1], 4, false, 2)
	if !errors.Is(err, ErrBaselineFailed) {
		t.Fatalf("err=%v, want errors.Is(..., ErrBaselineFailed)", err)
	}
}

// skipGraph builds a topology whose random pair draws hit the skip path,
// which generated topologies are too well-connected to reach: AS 900
// hangs off stub 100 by a peer link only, so valley-free export rules
// mean 900 never learns any route except 100's own, and every draw with
// 900 as the attacker (and victim != 100) is skippable.
func skipGraph(t *testing.T) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {20, 60},
		{30, 100}, {40, 70}, {50, 200}, {60, 300},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatalf("AddP2C(%v): %v", e, err)
		}
	}
	if err := b.AddP2P(10, 20); err != nil {
		t.Fatalf("AddP2P: %v", err)
	}
	if err := b.AddP2P(100, 900); err != nil {
		t.Fatalf("AddP2P: %v", err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestSamplePairsSkippableRedrawn: an unreachable-attacker draw is skipped
// and redrawn from the stream rather than failing the sweep, and the sweep
// still fills its full quota.
func TestSamplePairsSkippableRedrawn(t *testing.T) {
	g := skipGraph(t)
	c := new(obs.Counters)
	const n = 12
	pairs, err := SamplePairs(g, PairConfig{Kind: PairsRandom, N: n, Prepend: 2, Seed: 3, Workers: 4, Counters: c})
	if err != nil {
		t.Fatalf("SamplePairs: %v", err)
	}
	if len(pairs) != n {
		t.Fatalf("got %d pairs, want %d (skippable draws must be redrawn, not lost)", len(pairs), n)
	}
	s := c.Snapshot()
	if s.SkippedUnreachable == 0 {
		t.Fatal("SkippedUnreachable=0; the graph is built so draws with attacker 900 skip")
	}
	if s.AttackPropagations() < n {
		t.Fatalf("AttackPropagations=%d, want >= %d despite skips", s.AttackPropagations(), n)
	}
}

// TestSweepPropagationConservation is the counter-attribution audit for
// the one attack-leg engine. Every consumed draw makes exactly one
// baseline-cache Get and then either one attack propagation or one
// unreachable skip, so over a whole sweep:
//
//   - prop_base == cache_miss (every miss computes one baseline, even
//     when a budgeted shard evicted and recomputes it);
//   - prop_delta + prop_full + skip_unreachable == cache_hit + cache_miss,
//     the draws consumed, which the chunked draw stream keeps a multiple
//     of N;
//   - prop_batch == 0: attack legs and sweep baselines never batch.
//
// The identities must hold, with the same totals, on the unsharded and
// sharded paths and under both engines. The survey half pins the one
// place lane batching survives: its table leg runs every origin as one
// PropagateBatch lane, so prop_batch equals the number of origins.
func TestSweepPropagationConservation(t *testing.T) {
	g := expGraph(t, 260, 11)
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		n    int
	}{
		{"generated", g, 60},
		{"skips", skipGraph(t), 12},
	} {
		var want obs.Snapshot
		for i, cfg := range []PairConfig{
			{Workers: 2},
			{Workers: 3, Shards: 3, MemBudget: 8 << 10},
			{Workers: 2, Engine: core.EngineFull},
		} {
			c := new(obs.Counters)
			cfg.Kind, cfg.N, cfg.Prepend, cfg.Seed, cfg.Counters = PairsRandom, tc.n, 3, 21, c
			if _, err := SamplePairs(tc.g, cfg); err != nil {
				t.Fatalf("%s config %d: %v", tc.name, i, err)
			}
			s := c.Snapshot()
			if s.BasePropagations != s.BaselineMisses {
				t.Errorf("%s config %d: prop_base=%d, cache_miss=%d; every miss computes one baseline",
					tc.name, i, s.BasePropagations, s.BaselineMisses)
			}
			draws := s.BaselineHits + s.BaselineMisses
			if legs := s.AttackPropagations() + s.SkippedUnreachable; legs != draws {
				t.Errorf("%s config %d: attack legs %d + skips %d = %d, want the %d draws consumed",
					tc.name, i, s.AttackPropagations(), s.SkippedUnreachable, legs, draws)
			}
			if draws < int64(tc.n) || draws%int64(tc.n) != 0 {
				t.Errorf("%s config %d: %d draws consumed, want a positive multiple of N=%d", tc.name, i, draws, tc.n)
			}
			if s.BatchPropagations != 0 || s.BatchCalls != 0 {
				t.Errorf("%s config %d: a pair sweep batched propagations: %v", tc.name, i, s)
			}
			if i == 0 {
				want = s
				continue
			}
			if s.AttackPropagations() != want.AttackPropagations() || s.SkippedUnreachable != want.SkippedUnreachable {
				t.Errorf("%s config %d: attack legs %d, skips %d; the unsharded delta run had %d, %d",
					tc.name, i, s.AttackPropagations(), s.SkippedUnreachable,
					want.AttackPropagations(), want.SkippedUnreachable)
			}
		}
		if tc.name == "skips" && want.SkippedUnreachable == 0 {
			t.Error("skip graph consumed no skippable draws; the skip identity went untested")
		}
	}

	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := new(obs.Counters)
	scfg := measure.DefaultSurveyConfig()
	scfg.ChurnEvents, scfg.Workers, scfg.Counters = 20, 2, c
	if _, err := measure.RunSurvey(g, origins, scfg); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.BatchPropagations != int64(len(origins)) {
		t.Errorf("survey prop_batch=%d, want one lane per origin (%d)", s.BatchPropagations, len(origins))
	}
	width := routing.AdaptiveLaneWidth(g.NumASes())
	if want := int64((len(origins) + width - 1) / width); s.BatchCalls != want {
		t.Errorf("survey batch_calls=%d, want %d (%d origins at lane width %d)",
			s.BatchCalls, want, len(origins), width)
	}
}
