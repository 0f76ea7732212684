package defense

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// frozenDrawAttacks is the all-at-once drawAttacks the chunked draw
// replaced, kept verbatim apart from reporting the candidate index of the
// last attack it kept (-1 when it kept none): it simulates every one of
// the 20×n candidates, then keeps the first n usable.
func frozenDrawAttacks(g *topology.Graph, cfg Config, n int, rng *rand.Rand) (*attackSet, int, error) {
	asns := g.ASNs()
	budget := n * 20
	candidates := make([]bgp.ASN, 0, budget)
	for len(candidates) < budget {
		m := asns[rng.Intn(len(asns))]
		if m != cfg.Victim {
			candidates = append(candidates, m)
		}
	}
	base, err := core.BaselineOnly(g, core.Scenario{Victim: cfg.Victim, Prepend: cfg.Prepend})
	if err != nil {
		return nil, -1, fmt.Errorf("defense: baseline for %v: %w", cfg.Victim, err)
	}
	sims, serr := parallel.MapErr(context.Background(), len(candidates), cfg.Workers, func(i int) (*core.Impact, error) {
		im, err := core.SimulateWithBaseline(g, core.Scenario{
			Victim:            cfg.Victim,
			Attacker:          candidates[i],
			Prepend:           cfg.Prepend,
			ViolateValleyFree: cfg.Violate,
		}, base)
		if routing.Skippable(err) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("defense: attack %v against %v: %w", candidates[i], cfg.Victim, err)
		}
		if len(im.NewlyPolluted()) == 0 {
			return nil, nil
		}
		return im, nil
	})
	if serr != nil {
		return nil, -1, serr
	}
	set, last := &attackSet{}, -1
	for i, im := range sims {
		if im != nil {
			set.impacts = append(set.impacts, im)
			last = i
			if len(set.impacts) == n {
				break
			}
		}
	}
	if len(set.impacts) < n/2 {
		return nil, -1, fmt.Errorf("defense: only %d usable attacks against %v", len(set.impacts), cfg.Victim)
	}
	return set, last, nil
}

// dilutedGraph is a small generated topology plus isolated
// provider/customer pairs whose ASes never hear the victim's route, so
// usable attackers are rare enough to exhaust the 20×n budget.
func dilutedGraph(t *testing.T, size, isolated int) *topology.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := topology.WriteSerial2(&buf, defGraph(t, size, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < isolated; i++ {
		fmt.Fprintf(&buf, "%d|%d|-1\n", 200000+2*i, 200001+2*i)
	}
	g, err := topology.ReadSerial2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDrawAttacksMatchesAllAtOnce: the chunked draw keeps exactly the
// attacks the all-at-once draw kept, in order, or fails with the same
// error, across seeds, victims, draw sizes and a topology where usable
// attacks run out. Its counters show it simulated only the chunks up to
// the one holding the last kept attack: prop_full+skip_unreachable (every
// candidate simulated) is that many chunks of n, below the 20×n budget
// whenever the draw succeeds early.
func TestDrawAttacksMatchesAllAtOnce(t *testing.T) {
	g := defGraph(t, 600, 51)
	victims := []bgp.ASN{pickVictim(t, g), g.Tier1s()[0], g.ASNs()[17]}
	diluted := dilutedGraph(t, 40, 1500)
	cases := []struct {
		g      *topology.Graph
		victim bgp.ASN
	}{
		{g, victims[0]}, {g, victims[1]}, {g, victims[2]},
		{diluted, diluted.ASNs()[3]}, {diluted, diluted.ASNs()[11]},
	}
	errs, early := 0, 0
	for ci, c := range cases {
		for _, n := range []int{1, 4, 10, 30} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := DefaultConfig(c.victim)
				cfg.Workers = int(seed) // 1, 2, 3 workers
				want, last, werr := frozenDrawAttacks(c.g, cfg, n, rand.New(rand.NewSource(seed)))
				cfg.Counters = new(obs.Counters)
				got, gerr := drawAttacks(c.g, cfg, n, rand.New(rand.NewSource(seed)))
				name := fmt.Sprintf("case %d victim %v n %d seed %d", ci, c.victim, n, seed)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s: error %v, all-at-once %v", name, gerr, werr)
				}
				snap := cfg.Counters.Snapshot()
				simulated := snap.FullPropagations + snap.SkippedUnreachable
				if werr != nil {
					errs++
					if simulated != int64(20*n) {
						t.Errorf("%s: failing draw simulated %d candidates, want the whole budget %d", name, simulated, 20*n)
					}
					continue
				}
				if !reflect.DeepEqual(scenarios(got), scenarios(want)) {
					t.Fatalf("%s: kept %v, all-at-once %v", name, scenarios(got), scenarios(want))
				}
				chunks := int64(20)
				if len(want.impacts) == n {
					chunks = int64(last/n + 1)
				}
				if simulated != chunks*int64(n) || snap.BasePropagations != 1 {
					t.Errorf("%s: prop_full %d + skip_unreachable %d, prop_base %d; want %d candidates, 1 baseline",
						name, snap.FullPropagations, snap.SkippedUnreachable, snap.BasePropagations, chunks*int64(n))
				}
				if simulated < int64(20*n) {
					early++
				}
			}
		}
	}
	if errs == 0 || early == 0 {
		t.Fatalf("%d failing and %d early-stopping draws; the cases must cover both", errs, early)
	}
}

func scenarios(s *attackSet) []core.Scenario {
	out := make([]core.Scenario, len(s.impacts))
	for i, im := range s.impacts {
		out[i] = im.Scenario
	}
	return out
}

// TestCompareCountsSimulatedAttacks: Compare's counters report its two
// attack draws (evaluation and greedy training): one baseline each, and
// fewer simulated candidates than the two 20×n budgets.
func TestCompareCountsSimulatedAttacks(t *testing.T) {
	g := defGraph(t, 600, 51)
	cfg := DefaultConfig(pickVictim(t, g))
	cfg.Counters = new(obs.Counters)
	if _, err := Compare(g, cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Counters.Snapshot()
	budget := int64(20 * (cfg.EvalAttacks + cfg.TrainingAttacks))
	simulated := snap.FullPropagations + snap.SkippedUnreachable
	if snap.BasePropagations != 2 || simulated == 0 || simulated >= budget ||
		snap.SkippedIneffective > snap.FullPropagations {
		t.Errorf("counters %s: want prop_base 2 and 0 < prop_full+skip_unreachable < %d", snap, budget)
	}
}
