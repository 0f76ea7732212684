package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// workerCounts is the worker grid of the invariance tests: serial (1),
// even split (2) and a prime above the group count of most chunks (7).
var workerCounts = []int{1, 2, 7}

// workCounters is the scheduling-independent part of a sweep's telemetry:
// the propagation, baseline and skip counters. The memory gauges are
// left out — a worker's Scratch high-watermark depends on which groups
// it ran.
func workCounters(s obs.Snapshot) [8]int64 {
	return [8]int64{
		s.BasePropagations, s.FullPropagations, s.DeltaPropagations, s.BatchPropagations,
		s.BaselineHits, s.BaselineMisses, s.SkippedUnreachable, s.SkippedIneffective,
	}
}

// checkWorkerInvariance runs sweep at every worker count and requires
// DeepEqual results and identical work counters.
func checkWorkerInvariance[T any](t *testing.T, sweep func(workers int, c *obs.Counters) (T, error)) {
	t.Helper()
	var (
		want     T
		wantWork [8]int64
	)
	for i, w := range workerCounts {
		c := new(obs.Counters)
		got, err := sweep(w, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		work := workCounters(c.Snapshot())
		if i == 0 {
			want, wantWork = got, work
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result diverges from workers=%d", w, workerCounts[0])
		}
		if work != wantWork {
			t.Fatalf("workers=%d: counters %v, workers=%d had %v", w, work, workerCounts[0], wantWork)
		}
	}
}

// TestWorkerInvarianceSamplePairs: the pair sweep's ranking and work
// counters do not depend on the worker count, on a generated graph and on
// one whose draws skip.
func TestWorkerInvarianceSamplePairs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  PairConfig
	}{
		{"random", expGraph(t, 400, 31), PairConfig{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7}},
		{"tier1", expGraph(t, 400, 31), PairConfig{Kind: PairsTier1, N: 30, Prepend: 3, Seed: 7}},
		{"skips", skipGraph(t), PairConfig{Kind: PairsRandom, N: 12, Prepend: 2, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkWorkerInvariance(t, func(w int, c *obs.Counters) ([]PairImpact, error) {
				cfg := tc.cfg
				cfg.Workers, cfg.Counters = w, c
				return SamplePairs(tc.g, cfg)
			})
		})
	}
}

// TestWorkerInvarianceSweepPrepend: the λ sweep is worker-invariant, with
// more λ steps than the largest worker count.
func TestWorkerInvarianceSweepPrepend(t *testing.T) {
	g := expGraph(t, 400, 31)
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	checkWorkerInvariance(t, func(w int, c *obs.Counters) ([]SweepPoint, error) {
		return SweepPrependCfgCtx(context.Background(), g, SweepConfig{
			Victim: t1[0], Attacker: t1[1], MaxLambda: 12, Workers: w, Counters: c,
		})
	})
}

// TestWorkerInvarianceSusceptibility: the tier matrix is worker-invariant.
func TestWorkerInvarianceSusceptibility(t *testing.T) {
	g := expGraph(t, 400, 31)
	checkWorkerInvariance(t, func(w int, c *obs.Counters) ([]TierCell, error) {
		cfg := DefaultSusceptibilityConfig()
		cfg.PairsPerCell, cfg.Workers, cfg.Counters = 6, w, c
		return SusceptibilityMatrix(g, cfg)
	})
}

// TestLegsFirstErrorDeterministic: with a baseline fault injected for
// every victim but the first drawn, groups 1, 2, ... all fail — several
// of them concurrently once workers > 1 — and the sweep must report group
// 1's error, byte-identical at every worker count.
func TestLegsFirstErrorDeterministic(t *testing.T) {
	g := expGraph(t, 300, 32)
	cfg := PairConfig{Kind: PairsRandom, N: 40, Prepend: 3, Seed: 9}
	orig := baselineOnly
	defer func() { baselineOnly = orig }()
	var first bgp.ASN
	baselineOnly = func(gg *topology.Graph, sc core.Scenario) (*routing.Result, error) {
		if first == 0 {
			first = sc.Victim // workers=1 computes group 0 first
		}
		return orig(gg, sc)
	}
	cfg.Workers = 1
	if _, err := SamplePairs(g, cfg); err != nil {
		t.Fatal(err)
	}
	baselineOnly = func(gg *topology.Graph, sc core.Scenario) (*routing.Result, error) {
		if sc.Victim != first {
			return nil, fmt.Errorf("injected fault for victim %v", sc.Victim)
		}
		return orig(gg, sc)
	}
	var want string
	for _, w := range workerCounts {
		cfg.Workers = w
		_, err := SamplePairs(g, cfg)
		if !errors.Is(err, ErrBaselineFailed) {
			t.Fatalf("workers=%d: err=%v, want errors.Is(..., ErrBaselineFailed)", w, err)
		}
		if want == "" {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: first error differs:\n  %v\n  %s", w, err, want)
		}
	}
}

// TestLegsMidGroupCancellation: a context cancelled after a group's
// baseline is computed stops the group before its first attack leg — the
// executor checks cancellation between legs, not only between groups.
func TestLegsMidGroupCancellation(t *testing.T) {
	g := expGraph(t, 300, 32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := baselineOnly
	defer func() { baselineOnly = orig }()
	baselineOnly = func(gg *topology.Graph, sc core.Scenario) (*routing.Result, error) {
		cancel() // the first group's baseline pulls the plug
		return orig(gg, sc)
	}
	c := new(obs.Counters)
	// Tier-1 pairs: few victims, so the first group holds several legs.
	_, err := SamplePairsCtx(ctx, g, PairConfig{
		Kind: PairsTier1, N: 30, Prepend: 3, Seed: 9, Workers: 1, Counters: c,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want errors.Is(..., context.Canceled)", err)
	}
	s := c.Snapshot()
	if s.BasePropagations != 1 || s.BaselineHits == 0 {
		t.Fatalf("prop_base=%d cache_hit=%d, want one baseline for a group with several legs",
			s.BasePropagations, s.BaselineHits)
	}
	if n := s.AttackPropagations() + s.SkippedUnreachable; n != 0 {
		t.Fatalf("%d attack legs ran after cancellation", n)
	}
}

// TestSweepGaugesRecorded: each of the five sweeps, at its default
// config, records the memory gauges through the executor — csr_bytes is
// the graph, cache_bytes one baseline and scratch_bytes one worker's
// Scratch.
func TestSweepGaugesRecorded(t *testing.T) {
	g := expGraph(t, 400, 31)
	t1 := g.Tier1s()
	one, err := core.BaselineOnly(g, core.Scenario{Victim: t1[0], Prepend: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(c *obs.Counters) error
	}{
		{"pairs", func(c *obs.Counters) error {
			_, err := SamplePairs(g, PairConfig{Kind: PairsRandom, N: 20, Prepend: 3, Seed: 1, Counters: c})
			return err
		}},
		{"sweep", func(c *obs.Counters) error {
			_, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
				Victim: t1[0], Attacker: t1[1], MaxLambda: 4, Counters: c,
			})
			return err
		}},
		{"susceptibility", func(c *obs.Counters) error {
			cfg := DefaultSusceptibilityConfig()
			cfg.Counters = c
			_, err := SusceptibilityMatrix(g, cfg)
			return err
		}},
		{"detection", func(c *obs.Counters) error {
			cfg := DefaultDetectionConfig()
			cfg.Pairs, cfg.Counters = 20, c
			_, err := RunDetection(g, cfg)
			return err
		}},
		{"compare", func(c *obs.Counters) error {
			cfg := DefaultCompareConfig()
			cfg.Counters = c
			_, err := CompareAttackTypes(g, cfg)
			return err
		}},
	} {
		c := new(obs.Counters)
		if err := tc.run(c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := c.Snapshot()
		if s.CSRBytes != g.MemoryBytes() {
			t.Errorf("%s: csr_bytes=%d, want the graph's %d", tc.name, s.CSRBytes, g.MemoryBytes())
		}
		// Every baseline of one graph has the same columns, so the
		// largest one a worker held is exactly one baseline's size.
		if s.CacheBytes != one.MemoryBytes() {
			t.Errorf("%s: cache_bytes=%d, want one baseline's %d", tc.name, s.CacheBytes, one.MemoryBytes())
		}
		if s.ScratchBytes <= 0 {
			t.Errorf("%s: scratch_bytes=%d, want a worker Scratch recorded", tc.name, s.ScratchBytes)
		}
	}
}

// TestZeroUsablePairsIsAnError: on a two-AS peering no attack can
// capture anyone, so with Pairs=1 (a usable threshold of Pairs/2 = 0)
// both detection and comparison must report too few usable pairs rather
// than return NaN accuracies and empty rows. A one-AS graph has no pair
// to draw at all: the sweeps must report that too, not spin on
// self-pairs forever.
func TestZeroUsablePairsIsAnError(t *testing.T) {
	peering, err := topology.ReadSerial2(strings.NewReader("1|2|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	b := topology.NewBuilder()
	if err := b.AddAS(1); err != nil {
		t.Fatal(err)
	}
	single, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*topology.Graph{"peering": peering, "single": single} {
		dcfg := DefaultDetectionConfig()
		dcfg.Pairs, dcfg.MonitorCounts = 1, []int{1}
		if out, err := RunDetection(g, dcfg); err == nil || !strings.Contains(err.Error(), "only 0 usable") {
			t.Errorf("%s: RunDetection: err=%v out=%+v, want an only-0-usable error", name, err, out)
		}
		ccfg := DefaultCompareConfig()
		ccfg.Pairs, ccfg.Monitors = 1, 1
		if out, err := CompareAttackTypes(g, ccfg); err == nil || !strings.Contains(err.Error(), "only 0 usable") {
			t.Errorf("%s: CompareAttackTypes: err=%v out=%+v, want an only-0-usable error", name, err, out)
		}
	}
	if _, err := SamplePairs(single, PairConfig{Kind: PairsRandom, N: 1, Prepend: 2, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "only 0 of 1") {
		t.Errorf("single: SamplePairs: err=%v, want an only-0-usable error", err)
	}
}
