package detect

import (
	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// EvalResult summarizes one attack instance's detectability from a given
// monitor set (the per-instance datum behind the paper's Figs. 13-14).
type EvalResult struct {
	// Detected: at least one monitor raised an alarm of any confidence.
	Detected bool
	// DetectedHigh: at least one high-confidence (segment conflict) alarm.
	DetectedHigh bool
	// Attributed: some alarm named the true attacker as the suspect.
	Attributed bool
	// PollutedBeforeDetection is the fraction of ultimately-polluted ASes
	// that adopted the bogus route strictly before the first detecting
	// monitor received it (1.0 when the attack goes undetected) — the
	// paper's Fig. 14 metric, with propagation time modeled as AS-hop
	// distance from the attacker along the bogus route.
	PollutedBeforeDetection float64
	// Alarms are all alarms raised across monitors.
	Alarms []Alarm
}

// EvalScratch is per-goroutine reusable state for EvaluateScratch and
// Load/Verdict: the path arena both routing results extract into, the
// span tables, the witness views, the loaded monitor set and the loaded
// impact's hop table. One scratch per goroutine (thread it
// through parallel.MapScratchErr worker state); the zero cost of reuse is
// what makes the detection sweeps allocation-light.
type EvalScratch struct {
	arena     *routing.PathArena
	baseSpans []routing.PathSpan
	atkSpans  []routing.PathSpan
	wits      []spanRoute
	alarms    []Alarm // Verdict's alarm buffer, reused across calls

	// ms is the loaded monitor set. EvaluateScratch resolves its
	// monitors into own, reused while the same (graph, monitors-slice)
	// pair, compared by identity, comes back: callers that score one
	// monitor slice across many impacts pay the resolution once.
	ms  MonitorSet
	own MonitorSet
	g   *topology.Graph

	// Hop table of the loaded impact im, built once per impact: hops[i]
	// is AS i's hop distance from the attacker along its attacked-route
	// parent chain (meaningful where the AS is polluted), early[h] counts
	// the polluted ASes (attacker excluded) fewer than h hops away, and
	// polluted is their total.
	im       *core.Impact
	hops     []int32
	early    []int
	polluted int
	stack    []int32
}

// MonitorSet is a monitor list resolved to a graph's dense AS indices
// (-1 for an AS the graph lacks), the form Load takes. A sweep resolves
// each of its lists once and loads it for every impact.
type MonitorSet struct {
	asns []bgp.ASN
	idx  []int32
}

// NewMonitorSet resolves monitors against g. monitors must not be
// mutated while the set is in use.
func NewMonitorSet(g *topology.Graph, monitors []bgp.ASN) MonitorSet {
	return resolveInto(g, monitors, nil)
}

func resolveInto(g *topology.Graph, monitors []bgp.ASN, idx []int32) MonitorSet {
	idx = idx[:0]
	for _, m := range monitors {
		i, ok := g.Index(m)
		if !ok {
			i = -1
		}
		idx = append(idx, i)
	}
	return MonitorSet{asns: monitors, idx: idx}
}

// NewEvalScratch returns an empty scratch, ready for EvaluateScratch.
func NewEvalScratch() *EvalScratch {
	return &EvalScratch{arena: routing.NewPathArena()}
}

// Evaluate runs the detection algorithm against one simulated attack: each
// monitor's pre-attack route acts as its previous state, its under-attack
// route as the new state, and all monitors' under-attack routes form the
// collaborative view R.
func Evaluate(im *core.Impact, monitors []bgp.ASN, rels RelQuerier) EvalResult {
	return EvaluateScratch(im, monitors, rels, NewEvalScratch())
}

// EvaluateScratch is Evaluate on reusable scratch state: both routing
// results are extracted into sc's arena as spans in one parent-chain walk
// per monitor, and the algorithm runs on the span views — no per-path
// slices. The verdicts and alarms are identical to Evaluate's. monitors
// must not be mutated while the scratch caches its resolution.
func EvaluateScratch(im *core.Impact, monitors []bgp.ASN, rels RelQuerier, sc *EvalScratch) EvalResult {
	g, own := im.Attacked().Graph(), sc.own.asns
	if sc.g != g || len(own) != len(monitors) ||
		(len(monitors) > 0 && &own[0] != &monitors[0]) {
		sc.own = resolveInto(g, monitors, sc.own.idx)
		sc.g = g
	}
	sc.Load(im, sc.own)
	return sc.scan(len(monitors), rels, nil)
}

// Load prepares sc to score im against prefixes of ms with Verdict; ms
// must be resolved against im's graph. Both routing results are
// extracted for every monitor once, so the sweeps evaluate nested monitor
// sets (TopByDegree(d) for growing d is a prefix of one ranking) and
// several relationship sources without re-walking a parent chain. The
// impact's hop table is built only when im differs from the previously
// loaded impact.
func (sc *EvalScratch) Load(im *core.Impact, ms MonitorSet) {
	baseline, attacked := im.Baseline(), im.Attacked()
	sc.ms = ms
	if sc.im != im {
		sc.loadHops(im)
	}

	sc.arena.Reset() // invalidates last round's spans
	sc.baseSpans = baseline.PathsInto(sc.arena, ms.idx, sc.baseSpans[:0])
	sc.atkSpans = attacked.PathsInto(sc.arena, ms.idx, sc.atkSpans[:0])

	// The collaborative view R: every monitor's under-attack route, in
	// monitor order (routeless monitors carry lambda 0 and are skipped
	// inside the core, matching the legacy witness construction). A
	// monitor's own entry doubles as its current-route view.
	sc.wits = sc.wits[:0]
	for k, m := range ms.asns {
		sp := sc.atkSpans[k]
		w := spanRoute{monitor: m, lambda: int(sp.Prep), seg: sp.Seg}
		if sp.Prep > 0 {
			w.origin = sp.Origin
			w.transit = sc.arena.Body(sp)
		}
		sc.wits = append(sc.wits, w)
	}
}

// Verdict scores the loaded impact against the first d monitors of the
// loaded set (0 <= d <= its size), both as the monitor set and as the
// collaborative view. It returns EvaluateScratch's verdict for those d
// monitors without the alarm list (Alarms is nil): the alarms land in
// a buffer the scratch reuses, so a sweep pays no per-call allocation for
// alarms it never reads.
func (sc *EvalScratch) Verdict(d int, rels RelQuerier) EvalResult {
	res := sc.scan(d, rels, sc.alarms[:0])
	sc.alarms = res.Alarms[:0]
	res.Alarms = nil
	return res
}

// scan runs the detection algorithm for the first d loaded monitors,
// appending their alarms to alarms.
func (sc *EvalScratch) scan(d int, rels RelQuerier, alarms []Alarm) EvalResult {
	res := EvalResult{Alarms: alarms}
	wits := sc.wits[:d]
	attacker := sc.im.Scenario.Attacker
	detectionHops := -1
	for k, cur := range wits {
		prev := sc.baseSpans[k]
		before := len(res.Alarms)
		res.Alarms = detectRoutes(cur.monitor, int(prev.Prep), prev.Origin, cur, wits, rels, res.Alarms)
		if len(res.Alarms) == before {
			continue
		}
		res.Detected = true
		for _, a := range res.Alarms[before:] {
			if a.Confidence == High {
				res.DetectedHigh = true
			}
			if a.Suspect == attacker {
				res.Attributed = true
			}
		}
		// This monitor detects as soon as the bogus route reaches it.
		if h := sc.monitorHops(k); h >= 0 && (detectionHops < 0 || h < detectionHops) {
			detectionHops = h
		}
	}
	res.PollutedBeforeDetection = sc.pollutedBefore(detectionHops)
	return res
}

// loadHops builds im's hop table: one memoized parent-chain walk per
// polluted AS (each chain node's distance is computed once), then the
// cumulative histogram pollutedBefore reads.
func (sc *EvalScratch) loadHops(im *core.Impact) {
	attacked := im.Attacked()
	via, parent := attacked.Via, attacked.Parent
	atkIdx, _ := attacked.Graph().Index(im.Scenario.Attacker)
	if cap(sc.hops) < len(via) {
		sc.hops = make([]int32, len(via))
	}
	hops := sc.hops[:len(via)]
	for i := range hops {
		hops[i] = -1 // not yet walked
	}
	hops[atkIdx] = 0
	sc.early = sc.early[:0]
	sc.polluted = 0
	for i, v := range via {
		if !v || int32(i) == atkIdx {
			continue
		}
		j := int32(i)
		for hops[j] < 0 {
			sc.stack = append(sc.stack, j)
			j = parent[j]
		}
		for h := hops[j]; len(sc.stack) > 0; {
			h++
			top := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			hops[top] = h
		}
		h := int(hops[i])
		for len(sc.early) <= h+1 {
			sc.early = append(sc.early, 0)
		}
		sc.early[h+1]++ // cumulated below
		sc.polluted++
	}
	for h := 1; h < len(sc.early); h++ {
		sc.early[h] += sc.early[h-1]
	}
	sc.hops, sc.im = hops, im
}

// monitorHops is the loaded impact's HopsFromAttacker for loaded monitor
// k: its hop distance from the attacker, or -1 when it is not polluted.
func (sc *EvalScratch) monitorHops(k int) int {
	i := sc.ms.idx[k]
	if i < 0 || !sc.im.Attacked().Via[i] {
		return -1
	}
	return int(sc.hops[i])
}

// pollutedBefore computes the Fig. 14 metric: with the bogus route
// spreading outward from the attacker hop by hop, the fraction of
// ultimately-polluted ASes that are strictly closer to the attacker than
// the first detecting monitor, read off the loaded impact's hop table.
func (sc *EvalScratch) pollutedBefore(detectionHops int) float64 {
	if sc.polluted == 0 {
		return 0
	}
	if detectionHops < 0 {
		return 1 // never detected: everyone polluted first
	}
	early := sc.early[len(sc.early)-1]
	if detectionHops < len(sc.early) {
		early = sc.early[detectionHops]
	}
	return float64(early) / float64(sc.polluted)
}
