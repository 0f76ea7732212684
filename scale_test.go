package aspp

// Scale tests: the library must handle Internet-realistic topology sizes.
// The 30k/12k tests are skipped under -short. The 80k tests generate the
// canonical internet80k topology (pinned by TestInternet80kDigest) and
// are gated behind ASPP_SCALE=1 — `make scale-smoke` (part of `make
// check`) runs them; a plain `go test ./...` skips them to stay fast.

import (
	"os"
	"runtime"
	"testing"
	"time"

	"aspp/internal/routing"
	"aspp/internal/topology"
)

func TestLargeScaleAttackSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test skipped in -short mode")
	}
	start := time.Now()
	in, err := NewInternet(WithSize(30000), WithSeed(3))
	if err != nil {
		t.Fatalf("NewInternet(30000): %v", err)
	}
	genDur := time.Since(start)

	t1 := in.Tier1s()
	start = time.Now()
	im, err := in.SimulateAttack(Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3})
	if err != nil {
		t.Fatalf("SimulateAttack: %v", err)
	}
	simDur := time.Since(start)

	if im.Eligible < 25000 {
		t.Errorf("only %d eligible ASes at n=30000", im.Eligible)
	}
	if im.After() <= 0 {
		t.Error("tier-1 attack captured nobody at scale")
	}
	t.Logf("n=30000: generate %v, simulate %v, pollution %.1f%%",
		genDur.Round(time.Millisecond), simDur.Round(time.Millisecond), 100*im.After())

	// A paper-scale simulation must be fast enough for the pair
	// experiments: a single attack simulation beyond ~2s would make the
	// 200-pair detection run impractical.
	if simDur > 2*time.Second {
		t.Errorf("attack simulation took %v at n=30000, want < 2s", simDur)
	}
}

func TestLargeScaleDetectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test skipped in -short mode")
	}
	in, err := NewInternet(WithSize(12000), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDetectionConfig()
	cfg.MonitorCounts = []int{70, 150}
	cfg.Pairs = 40
	start := time.Now()
	out, err := in.RunDetection(cfg)
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	if out.Accuracy[1].Detected < out.Accuracy[0].Detected-0.05 {
		t.Errorf("accuracy fell with more monitors at scale: %+v", out.Accuracy)
	}
	t.Logf("n=12000 detection sweep (%d pairs): %v, detected@150=%.2f",
		out.UsablePairs, time.Since(start).Round(time.Millisecond), out.Accuracy[1].Detected)
}

func scaleGate(tb testing.TB) {
	if os.Getenv("ASPP_SCALE") == "" {
		tb.Skip("80k scale run gated behind ASPP_SCALE=1 (make scale-smoke)")
	}
}

func internet80k(tb testing.TB) *Internet {
	tb.Helper()
	in, err := NewInternet(WithGenConfig(topology.InternetGenConfig(topology.Internet80kASes)))
	if err != nil {
		tb.Fatalf("internet80k: %v", err)
	}
	return in
}

// baselineSlackBytes is the allocator slack allowed on top of
// routing.BaselineResultBytes: a baseline's four columns are separate
// large allocations, each rounded up to whole 8 KiB pages (measured at
// 80k: 21,120 bytes over the predictor).
const baselineSlackBytes = 4 * 8 << 10

// TestScale80kPairSweepBounded is the scale-smoke gate: pair sweeps over
// the full 80k topology at default config — no knob — must complete, and
// the recorded memory gauges must show the executor's bound: the CSR
// graph, and at most one baseline held per worker (cache_bytes is the
// largest baseline a worker held). Two shapes: tier-1 pairs, whose few
// victims each run many legs, and violating random pairs, whose victims
// almost never repeat.
func TestScale80kPairSweepBounded(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	g := in.Graph()
	oneBaseline := routing.BaselineResultBytes(g.NumASes()) + baselineSlackBytes
	for _, cfg := range []PairConfig{
		{Kind: PairsTier1, N: 24, Prepend: 3, Seed: 1},
		{Kind: PairsRandom, N: 64, Prepend: 3, Violate: true, Seed: 1},
	} {
		c := new(Counters)
		cfg.Counters = c
		start := time.Now()
		pairs, err := in.SamplePairs(cfg)
		if err != nil {
			t.Fatalf("80k pair sweep %+v: %v", cfg, err)
		}
		if len(pairs) != cfg.N {
			t.Fatalf("got %d pairs, want %d", len(pairs), cfg.N)
		}
		for i, p := range pairs {
			if p.After < 0 || p.After > 1 {
				t.Fatalf("pair %d pollution out of range: %+v", i, p)
			}
		}
		s := c.Snapshot()
		t.Logf("80k kind=%d N=%d: %v; cache_bytes=%d (one baseline %d + slack %d) scratch_bytes=%d csr_bytes=%d",
			cfg.Kind, cfg.N, time.Since(start).Round(time.Millisecond), s.CacheBytes,
			routing.BaselineResultBytes(g.NumASes()), int64(baselineSlackBytes), s.ScratchBytes, s.CSRBytes)
		if s.CSRBytes != g.MemoryBytes() {
			t.Fatalf("csr_bytes=%d, want the graph's %d", s.CSRBytes, g.MemoryBytes())
		}
		if s.CacheBytes <= 0 || s.ScratchBytes <= 0 {
			t.Fatalf("memory gauges not recorded: %+v", s)
		}
		if s.CacheBytes > oneBaseline {
			t.Fatalf("cache_bytes %d exceeds one baseline (%d with slack)", s.CacheBytes, oneBaseline)
		}
	}
}

// BenchmarkScale80kPairSweep is the committed 80k record (BENCH_pr9.json):
// the scale-smoke tier-1 sweep as a benchmark, gated like the scale tests.
func BenchmarkScale80kPairSweep(b *testing.B) {
	scaleGate(b)
	in := internet80k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SamplePairs(PairConfig{
			Kind: PairsTier1, N: 24, Prepend: 3, Seed: 1, Workers: runtime.NumCPU(),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
