package experiment

import (
	"context"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// The sweep executor (DESIGN §5f). Every sweep behind Figs. 7-14 runs the
// same per-draw loop: propagate the victim's λ-prepended announcement
// (the baseline), then the attacker's stripped re-announcement on top of
// it (the attack leg). runLegs is the one place that decides where a
// baseline lives and for how long. It groups a sweep's legs by their
// (victim, λ) key in first-appearance order and fans the groups out
// across the worker pool, one routing.Scratch per worker. Each group
// computes its baseline once, runs its legs in candidate order and then
// drops the baseline. A sweep's resident set is therefore the CSR graph
// plus workers × (one baseline + one Scratch), whatever the sweep's size
// or victim count, with no knob to tune.

// baselineKey identifies one baseline: origin announcing with λ = lambda
// uniformly to all neighbors.
type baselineKey struct {
	origin bgp.ASN
	lambda int
}

// baselineOnly computes one group's baseline. It is a package variable
// only so fault-injection tests can force a deterministic per-victim
// baseline failure; production code never reassigns it.
var baselineOnly = core.BaselineOnly

// runLegs runs legs 0..n-1, where leg i attacks the baseline of key(i):
// leg(s, base, i) runs on the worker's Scratch s against the shared
// read-only baseline base and writes its result index-addressed, so the
// output does not depend on scheduling. The leg decides what is
// skippable: it counts and swallows a skippable draw, and any error it
// returns aborts its group.
//
// Error contract: a baseline failure is fatal and wrapped in
// ErrBaselineFailed; cancellation is checked between legs; the error
// returned is the lowest group index's, the same at every worker count.
//
// Counters: cache_miss and prop_base count one per group, cache_hit the
// group's other legs, so hits + misses is the number of legs. The memory
// gauges record the CSR graph, the largest baseline a worker held and the
// largest worker Scratch.
func runLegs(ctx context.Context, g *topology.Graph, workers int, c *obs.Counters,
	n int, key func(i int) baselineKey, leg func(s *routing.Scratch, base *routing.Result, i int) error) error {
	c.RecordCSRBytes(g.MemoryBytes())
	var groups [][]int
	index := make(map[baselineKey]int)
	for i := 0; i < n; i++ {
		k := key(i)
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return parallel.ForEachScratchErr(ctx, len(groups), workers, routing.NewScratch,
		func(s *routing.Scratch, gi int) error {
			legs := groups[gi]
			k := key(legs[0])
			c.AddBaselineMisses(1)
			c.AddBaselineHits(int64(len(legs) - 1))
			base, err := baselineOnly(g, core.Scenario{Victim: k.origin, Prepend: k.lambda})
			if err != nil {
				return baselineError(k.origin, k.lambda, err)
			}
			c.AddBasePropagations(1)
			c.RecordCacheBytes(base.MemoryBytes())
			for _, i := range legs {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := leg(s, base, i); err != nil {
					return err
				}
			}
			c.RecordScratchBytes(s.MemoryBytes())
			return nil
		})
}

// skipped reports whether err is a skippable draw (the attacker never
// learned the victim's route), counting it into c. Skippable draws are
// redrawn or oversampled by the pair-drawing sweeps.
func skipped(err error, c *obs.Counters) bool {
	if routing.Skippable(err) {
		c.AddSkippedUnreachable(1)
		return true
	}
	return false
}
