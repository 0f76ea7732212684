package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
)

func TestBaselineCacheSharesOneResult(t *testing.T) {
	g := expGraph(t, 300, 7)
	cache := NewBaselineCache(g)
	victim := g.Tier1s()[0]

	const goroutines = 16
	results := make([]interface{ Origin() bgp.ASN }, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := cache.Get(victim, 3)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different Result pointer", i)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
	// Distinct λ is a distinct entry.
	other, err := cache.Get(victim, 5)
	if err != nil {
		t.Fatal(err)
	}
	if other == results[0] {
		t.Fatal("λ=5 shares λ=3's baseline")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
}

func TestBaselineCacheMatchesDirectPropagation(t *testing.T) {
	g := expGraph(t, 300, 7)
	cache := NewBaselineCache(g)
	for _, victim := range g.Tier1s()[:2] {
		cached, err := cache.Get(victim, 3)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.BaselineOnly(g, core.Scenario{Victim: victim, Prepend: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cached.Class {
			if cached.Class[i] != direct.Class[i] || cached.Len[i] != direct.Len[i] ||
				cached.Parent[i] != direct.Parent[i] || cached.Prep[i] != direct.Prep[i] {
				t.Fatalf("victim %v: cached baseline diverges at index %d", victim, i)
			}
		}
	}
}

// TestBaselineCacheBudgetEviction: unit coverage of the FIFO budget —
// the resident bytes stay within budget once past the keep floor, and
// evicted entries recompute as fresh misses.
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
	budget := 3*entry + entry/2
	cache := NewBaselineCacheBudget(g, c, budget, 2)
	for i := 0; i < 8; i++ {
		if _, err := cache.Get(asns[i], 1); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if peak := cache.PeakBytes(); peak <= 0 || peak > budget {
		t.Fatalf("PeakBytes() = %d, want within (0, %d]", peak, budget)
	}
	if cache.Len() >= 8 {
		t.Fatalf("no eviction happened: Len=%d", cache.Len())
	}
	missesBefore := c.Snapshot().BaselineMisses
	if _, err := cache.Get(asns[0], 1); err != nil { // evicted long ago
		t.Fatal(err)
	}
	if got := c.Snapshot().BaselineMisses; got != missesBefore+1 {
		t.Fatalf("evicted key re-Get misses = %d, want %d", got, missesBefore+1)
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

// TestSamplePairsCachedMatchesSimulate pins the executor's sweep path
// to the plain per-call core.Simulate results.
func TestSamplePairsCachedMatchesSimulate(t *testing.T) {
	g := expGraph(t, 400, 11)
	pairs, err := SamplePairs(g, PairConfig{Kind: PairsTier1, N: 20, Prepend: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		im, err := core.Simulate(g, core.Scenario{
			Victim: p.Victim, Attacker: p.Attacker, Prepend: 3,
		})
		if err != nil {
			t.Fatalf("Simulate(%v,%v): %v", p.Victim, p.Attacker, err)
		}
		if p.Before != im.Before() || p.After != im.After() {
			t.Fatalf("pair %v/%v: sweep path %.4f/%.4f, Simulate %.4f/%.4f",
				p.Victim, p.Attacker, p.Before, p.After, im.Before(), im.After())
		}
	}
}

func TestDriversReturnCtxErrWhenCancelled(t *testing.T) {
	g := expGraph(t, 300, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t1 := g.Tier1s()

	if _, err := SamplePairsCtx(ctx, g, PairConfig{Kind: PairsTier1, N: 10, Prepend: 3, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("SamplePairsCtx: %v, want context.Canceled", err)
	}
	if _, err := SweepPrependCfgCtx(ctx, g, SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 6}); !errors.Is(err, context.Canceled) {
		t.Errorf("SweepPrependCfgCtx: %v, want context.Canceled", err)
	}
	if _, err := SusceptibilityMatrixCtx(ctx, g, DefaultSusceptibilityConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("SusceptibilityMatrixCtx: %v, want context.Canceled", err)
	}
	cfg := DefaultDetectionConfig()
	cfg.Pairs = 10
	if _, err := RunDetectionCtx(ctx, g, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunDetectionCtx: %v, want context.Canceled", err)
	}
	if _, err := CompareAttackTypesCtx(ctx, g, DefaultCompareConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("CompareAttackTypesCtx: %v, want context.Canceled", err)
	}
}

// TestSamplePairsCancelMidSweep cancels while workers are mid-flight; the
// driver must drain and surface ctx.Err() without racing (exercised under
// -race in the tier-1 matrix).
func TestSamplePairsCancelMidSweep(t *testing.T) {
	g := expGraph(t, 400, 11)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := SamplePairsCtx(ctx, g, PairConfig{
			Kind: PairsRandom, N: 400, Prepend: 3, Seed: 3, Workers: 4,
		})
		// Either the sweep finished before the cancel landed (nil error
		// impossible here: N*20 candidates keep workers busy) or it
		// reports cancellation. Both are race-free outcomes.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("unexpected error: %v", err)
		}
	}()
	cancel()
	<-done
}
