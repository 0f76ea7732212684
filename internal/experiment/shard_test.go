package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// shardCounts is the shard-count grid of the invariance differential:
// trivial (1), even split (2), prime (7), and more shards than most
// sweeps have victims (32) — empty shards must be harmless.
var shardCounts = []int{1, 2, 7, 32}

func TestNormalizeShards(t *testing.T) {
	cases := []struct {
		shards  int
		budget  int64
		want    int
		wantErr bool
	}{
		{0, 0, 0, false},       // legacy path
		{3, 0, 3, false},       // explicit shards, unbounded caches
		{0, 1 << 20, 1, false}, // budget alone implies one budgeted shard
		{5, 1 << 20, 5, false},
		{-1, 0, 0, true},
		{0, -1, 0, true},
	}
	for _, c := range cases {
		got, err := normalizeShards(c.shards, c.budget)
		if (err != nil) != c.wantErr {
			t.Fatalf("normalizeShards(%d, %d) err=%v, wantErr=%v", c.shards, c.budget, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Fatalf("normalizeShards(%d, %d) = %d, want %d", c.shards, c.budget, got, c.want)
		}
	}
}

// TestShardInvarianceSamplePairs is the shard-layer differential: for
// every shard count, with and without a tight eviction-heavy byte
// budget, the sharded pair sweep must be DeepEqual to the unsharded one
// — the TSV downstream is then byte-identical by construction.
func TestShardInvarianceSamplePairs(t *testing.T) {
	g := expGraph(t, 400, 31)
	base := PairConfig{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7, Workers: 3}
	want, err := SamplePairs(g, base)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	for _, shards := range shardCounts {
		for _, budget := range []int64{0, 8 << 10} { // unbounded and eviction-heavy
			cfg := base
			cfg.Shards, cfg.MemBudget = shards, budget
			got, err := SamplePairs(g, cfg)
			if err != nil {
				t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d budget=%d diverges from unsharded", shards, budget)
			}
		}
	}
}

// TestShardInvarianceSweepPrepend: λ-block sharding of the prepend sweep
// is invariant too, including shard counts above MaxLambda (clamped).
func TestShardInvarianceSweepPrepend(t *testing.T) {
	g := expGraph(t, 400, 31)
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	base := SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 12, Workers: 3}
	want, err := SweepPrependCfgCtx(context.Background(), g, base)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	for _, shards := range shardCounts {
		cfg := base
		cfg.Shards, cfg.MemBudget = shards, 8<<10
		got, err := SweepPrependCfgCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from unsharded", shards)
		}
	}
}

// TestShardInvarianceSusceptibility: victim-sharded tier matrix is
// invariant across shard counts and budgets.
func TestShardInvarianceSusceptibility(t *testing.T) {
	g := expGraph(t, 400, 31)
	base := DefaultSusceptibilityConfig()
	base.PairsPerCell, base.Workers = 6, 3
	want, err := SusceptibilityMatrix(g, base)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	for _, shards := range shardCounts {
		cfg := base
		cfg.Shards, cfg.MemBudget = shards, 8<<10
		got, err := SusceptibilityMatrix(g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from unsharded", shards)
		}
	}
}

// TestShardMemBudgetImpliesSharding: MemBudget alone routes through one
// budgeted shard and still matches the legacy path.
func TestShardMemBudgetImpliesSharding(t *testing.T) {
	g := expGraph(t, 300, 32)
	base := PairConfig{Kind: PairsRandom, N: 15, Prepend: 3, Seed: 9, Workers: 2}
	want, err := SamplePairs(g, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.MemBudget = 16 << 10
	got, err := SamplePairs(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("MemBudget-only run diverges from legacy path")
	}
}

// TestShardConfigValidation: negative shard counts and budgets are
// rejected by every sharded driver.
func TestShardConfigValidation(t *testing.T) {
	g := expGraph(t, 300, 32)
	if _, err := SamplePairs(g, PairConfig{Kind: PairsRandom, N: 5, Prepend: 3, Seed: 1, Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted by SamplePairs")
	}
	if _, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
		Victim: g.Tier1s()[0], Attacker: g.Tier1s()[1], MaxLambda: 3, MemBudget: -5,
	}); err == nil {
		t.Fatal("negative MemBudget accepted by SweepPrependCfgCtx")
	}
	cfg := DefaultSusceptibilityConfig()
	cfg.Shards = -2
	if _, err := SusceptibilityMatrix(g, cfg); err == nil {
		t.Fatal("negative Shards accepted by SusceptibilityMatrix")
	}
}

// TestShardFirstErrorDeterministic: with an injected per-victim baseline
// fault, two identical sharded runs report the identical error — the
// lowest-shard-index failure, independent of worker scheduling.
func TestShardFirstErrorDeterministic(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := baselineOnly
	defer func() { baselineOnly = orig }()
	baselineOnly = func(_ *topology.Graph, sc core.Scenario) (*routing.Result, error) {
		return nil, fmt.Errorf("injected fault for victim %v", sc.Victim)
	}
	cfg := PairConfig{Kind: PairsRandom, N: 10, Prepend: 3, Seed: 9, Workers: 4, Shards: 7}
	_, err1 := SamplePairs(g, cfg)
	_, err2 := SamplePairs(g, cfg)
	if err1 == nil || err2 == nil {
		t.Fatal("injected baseline fault swallowed")
	}
	if !errors.Is(err1, ErrBaselineFailed) {
		t.Fatalf("err=%v, want errors.Is(..., ErrBaselineFailed)", err1)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("first error nondeterministic:\n  %v\n  %v", err1, err2)
	}
}

// TestShardMidShardCancellation: a context cancelled while a shard is
// mid-candidate aborts between candidates with context.Canceled — the
// shard does not run to completion first.
func TestShardMidShardCancellation(t *testing.T) {
	g := expGraph(t, 300, 32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := baselineOnly
	defer func() { baselineOnly = orig }()
	calls := 0
	baselineOnly = func(gg *topology.Graph, sc core.Scenario) (*routing.Result, error) {
		calls++
		if calls == 2 {
			cancel() // second victim's baseline pulls the plug mid-shard
		}
		return orig(gg, sc)
	}
	cfg := PairConfig{Kind: PairsRandom, N: 20, Prepend: 3, Seed: 9, Workers: 1, Shards: 1}
	_, err := SamplePairsCtx(ctx, g, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want errors.Is(..., context.Canceled)", err)
	}
	if calls >= 20 {
		t.Fatalf("shard ran %d baselines to completion despite cancellation", calls)
	}
}

// TestShardGaugesWithinBudget: a budgeted sharded sweep records the
// memory gauges, and the cache high-watermark respects the per-shard
// budget (the scale-smoke invariant, here at test scale).
func TestShardGaugesWithinBudget(t *testing.T) {
	g := expGraph(t, 400, 31)
	const budget = 1 << 20
	c := new(obs.Counters)
	_, err := SamplePairs(g, PairConfig{
		Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7, Workers: 3,
		Shards: 2, MemBudget: budget, Counters: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.CacheBytes <= 0 || s.ScratchBytes <= 0 || s.CSRBytes <= 0 {
		t.Fatalf("gauges not recorded: cache=%d scratch=%d csr=%d",
			s.CacheBytes, s.ScratchBytes, s.CSRBytes)
	}
	if s.CacheBytes > budget {
		t.Fatalf("cache_bytes %d exceeds per-shard budget %d", s.CacheBytes, budget)
	}
	if s.CSRBytes != g.MemoryBytes() {
		t.Fatalf("csr_bytes = %d, want graph footprint %d", s.CSRBytes, g.MemoryBytes())
	}
}

// TestBaselineCacheBudgetEviction: unit coverage of the FIFO budget —
// bytes stay within budget once past the keep floor, evicted entries
// recompute as fresh misses, Release empties but keeps the peak.
func TestBaselineCacheBudgetEviction(t *testing.T) {
	g := expGraph(t, 300, 32)
	asns := g.ASNs()
	one, err := core.BaselineOnly(g, core.Scenario{Victim: asns[0], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	entry := one.MemoryBytes()
	c := new(obs.Counters)
	// Budget fits ~3 entries; keep floor of 2.
	cache := NewBaselineCacheBudget(g, c, 3*entry+entry/2, 2)
	for i := 0; i < 8; i++ {
		if _, err := cache.Get(asns[i], 1); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if got := cache.Bytes(); got > 3*entry+entry/2 {
		t.Fatalf("Bytes() = %d exceeds budget %d", got, 3*entry+entry/2)
	}
	if cache.Len() >= 8 {
		t.Fatalf("no eviction happened: Len=%d", cache.Len())
	}
	if peak := cache.PeakBytes(); peak < cache.Bytes() || peak <= 0 {
		t.Fatalf("PeakBytes=%d inconsistent with Bytes=%d", peak, cache.Bytes())
	}
	missesBefore := c.Snapshot().BaselineMisses
	if _, err := cache.Get(asns[0], 1); err != nil { // evicted long ago
		t.Fatal(err)
	}
	if got := c.Snapshot().BaselineMisses; got != missesBefore+1 {
		t.Fatalf("evicted key re-Get misses = %d, want %d", got, missesBefore+1)
	}
	peak := cache.PeakBytes()
	cache.Release()
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Fatalf("Release left Len=%d Bytes=%d", cache.Len(), cache.Bytes())
	}
	if cache.PeakBytes() != peak {
		t.Fatalf("Release dropped peak: %d -> %d", peak, cache.PeakBytes())
	}
	// Post-Release the cache is reusable.
	if _, err := cache.Get(asns[1], 1); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineCacheKeepFloor: the keep newest entries survive even when
// they alone exceed the budget.
func TestBaselineCacheKeepFloor(t *testing.T) {
	g := expGraph(t, 300, 32)
	asns := g.ASNs()
	cache := NewBaselineCacheBudget(g, nil, 1, 4) // budget of one byte, keep 4
	for i := 0; i < 6; i++ {
		if _, err := cache.Get(asns[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Len(); got != 4 {
		t.Fatalf("Len = %d, want keep floor 4", got)
	}
	// The newest keys are the survivors: re-Get must not grow the map.
	for i := 2; i < 6; i++ {
		before := cache.Len()
		if _, err := cache.Get(asns[i], 1); err != nil {
			t.Fatal(err)
		}
		if cache.Len() != before {
			t.Fatalf("Get(asns[%d]) recomputed a kept entry", i)
		}
	}
}
