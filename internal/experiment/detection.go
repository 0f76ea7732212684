package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// MonitorPolicy selects how the vantage-point set is chosen.
type MonitorPolicy uint8

const (
	// MonitorsTopDegree ranks all ASes by degree and takes the top d
	// (the paper's Fig. 13 policy).
	MonitorsTopDegree MonitorPolicy = iota + 1
	// MonitorsRandom samples d monitors uniformly (the ablation).
	MonitorsRandom
)

// DetectionConfig parameterizes the detection experiments.
type DetectionConfig struct {
	// MonitorCounts are the vantage-point set sizes to evaluate.
	MonitorCounts []int
	// Pairs is the number of random attacker/victim pairs (paper: 200).
	Pairs int
	// Prepend is the victim's λ.
	Prepend int
	// Violate lets the attacker export the bogus route to all neighbors.
	// The paper's random attacker/victim instances show substantial
	// pollution even for edge attackers, implying its Fig. 2 simulator
	// propagates the modified route without the attacker's own export
	// restriction; enabling this reproduces that behavior (and without it
	// most random edge attackers are no-ops with nothing to detect).
	Violate bool
	// Policy selects the monitor-set construction.
	Policy MonitorPolicy
	// Rels supplies AS relationships to the hint rules; nil uses the
	// ground-truth graph.
	Rels detect.RelQuerier
	// LatencyMonitors is the monitor-set size used for the Fig. 14
	// polluted-before-detection series (0 = the largest entry of
	// MonitorCounts). The paper's 150 monitors cover ~0.5% of its ~30k-AS
	// Internet; on smaller generated topologies a coverage-matched count
	// reproduces the figure's shape.
	LatencyMonitors int
	Seed            int64
	Workers         int
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
}

// DefaultDetectionConfig mirrors the paper's setup.
func DefaultDetectionConfig() DetectionConfig {
	return DetectionConfig{
		MonitorCounts: []int{10, 30, 50, 70, 100, 150, 200, 250, 300},
		Pairs:         200,
		Prepend:       3,
		Violate:       true,
		Policy:        MonitorsTopDegree,
		Seed:          1,
	}
}

// AccuracyPoint is one monitor-count datum of Fig. 13.
type AccuracyPoint struct {
	Monitors int
	// Detected is the fraction of attacks raising any alarm; High counts
	// only segment-conflict alarms; Attributed counts attacks where some
	// alarm named the true attacker.
	Detected, High, Attributed float64
}

// DetectionOutcome carries both figures' data from one run.
type DetectionOutcome struct {
	Accuracy []AccuracyPoint
	// PollutedBeforeDetection holds, for the latency monitor set, one
	// fraction per attack instance (Fig. 14's CDF input); undetected
	// attacks contribute 1.0. LatencyDetected marks which instances the
	// latency monitor set detected at all, so callers can condition the
	// CDF on detection.
	PollutedBeforeDetection []float64
	LatencyDetected         []bool
	// UsablePairs is the number of simulated attacks (attacker reachable
	// and stripping effective).
	UsablePairs int
}

// RunDetection simulates cfg.Pairs random interception attacks once, then
// evaluates the detection algorithm under every monitor-set size.
func RunDetection(g *topology.Graph, cfg DetectionConfig) (*DetectionOutcome, error) {
	return RunDetectionCtx(context.Background(), g, cfg)
}

// RunDetectionCtx is RunDetection with cooperative cancellation: the two
// phases SimulateDetectionAttacks and DetectionAttacks.Evaluate, composed
// for the single variant cfg describes (cfg.Policy, cfg.Rels). Returns
// (nil, ctx.Err()) when cancelled.
func RunDetectionCtx(ctx context.Context, g *topology.Graph, cfg DetectionConfig) (*DetectionOutcome, error) {
	attacks, err := SimulateDetectionAttacks(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	outs, err := attacks.Evaluate(ctx, DetectionVariant{Policy: cfg.Policy, Rels: cfg.Rels})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// DetectionAttacks is the first phase of a detection run: the usable
// attack set, simulated once. Evaluate scores it against any number of
// monitor-set variants, which is how Fig. 13 compares monitor placements
// and relationship sources on the same attacks.
type DetectionAttacks struct {
	g       *topology.Graph
	cfg     DetectionConfig
	impacts []*core.Impact
}

// DetectionVariant is one way of scoring a detection attack set; its
// fields mean what the same-named DetectionConfig fields mean.
type DetectionVariant struct {
	Policy MonitorPolicy
	Rels   detect.RelQuerier
}

// SimulateDetectionAttacks draws cfg.Pairs random attacker/victim pairs
// and simulates them, returning the usable attacks (attacker reachable,
// stripping effective). cfg's Policy and Rels are not read here: they
// only shape the evaluation, which takes them per variant. Detection needs the full
// Impact (monitor paths), so the attack results are freshly allocated;
// the legs still run through the sweep executor, which shares each
// victim's baseline across its legs. Cancellation is checked between
// attack legs.
func SimulateDetectionAttacks(ctx context.Context, g *topology.Graph, cfg DetectionConfig) (*DetectionAttacks, error) {
	if len(cfg.MonitorCounts) == 0 || cfg.Pairs <= 0 {
		return nil, errors.New("experiment: empty detection config")
	}
	if cfg.Prepend < 2 {
		return nil, errors.New("experiment: detection needs λ >= 2 (something to strip)")
	}

	// Draw pairs — victims and attackers uniform over all ASes — in chunks
	// of cfg.Pairs from one stream, stopping once cfg.Pairs usable attacks
	// exist; the 20× budget only bounds how far redraws may reach.
	draws := newPairStream(g.ASNs(), cfg.Seed, cfg.Pairs*20, false)
	// Usable attacks must actually capture someone: an attack that
	// changes no routes is a no-op — unobservable and harmless — and
	// would only dilute the accuracy denominator.
	usable := make([]*core.Impact, 0, cfg.Pairs)
	for len(usable) < cfg.Pairs {
		chunk := draws.next(cfg.Pairs)
		if len(chunk) == 0 {
			break // retry budget exhausted
		}
		impacts := make([]*core.Impact, len(chunk))
		err := runLegs(ctx, g, cfg.Workers, cfg.Counters, len(chunk), chunkKey(chunk, cfg.Prepend),
			func(_ *routing.Scratch, base *routing.Result, i int) error {
				im, err := core.SimulateWithBaselineObs(g, core.Scenario{
					Victim:            chunk[i].v,
					Attacker:          chunk[i].m,
					Prepend:           cfg.Prepend,
					ViolateValleyFree: cfg.Violate,
				}, base, cfg.Counters)
				if skipped(err, cfg.Counters) {
					return nil // redrawn from the stream
				}
				if err != nil {
					return fmt.Errorf("pair %v/%v: %w", chunk[i].v, chunk[i].m, err)
				}
				impacts[i] = im
				return nil
			})
		if err != nil {
			return nil, sweepError("detection sweep", err)
		}
		for _, im := range impacts {
			if im == nil {
				continue
			}
			if len(im.NewlyPolluted()) == 0 {
				cfg.Counters.AddSkippedIneffective(1)
				continue
			}
			usable = append(usable, im)
			if len(usable) == cfg.Pairs {
				break
			}
		}
	}
	if len(usable) == 0 || len(usable) < cfg.Pairs/2 {
		return nil, fmt.Errorf("experiment: only %d usable attack pairs", len(usable))
	}
	return &DetectionAttacks{g: g, cfg: cfg, impacts: usable}, nil
}

// evalTask is one monitor set scored under one relationship source: the
// first d monitors of one of the evaluation's monitor lists.
type evalTask struct {
	list, d int
	rels    detect.RelQuerier
}

// Evaluate scores the attack set under each variant at every monitor
// count of the simulating config, and at its latency count for the
// Fig. 14 series, returning one outcome per variant, each identical to
// what RunDetectionCtx returns for that variant alone. The sweep runs one
// pass over the attacks: per attack, the monitor routes are extracted
// once per distinct monitor list and every variant's monitor counts are
// scored on them. Top-degree sets are prefixes of one degree ranking, so
// all top-degree variants share a single list at the largest count; each
// random set is its own list. Each list is resolved to graph indices once
// per call. Cancellation is checked between attacks.
func (a *DetectionAttacks) Evaluate(ctx context.Context, variants ...DetectionVariant) ([]*DetectionOutcome, error) {
	g, counts := a.g, a.cfg.MonitorCounts
	// ds are the monitor counts every variant scores: the accuracy
	// counts, then the latency count when it is not among them.
	latency := a.cfg.LatencyMonitors
	if latency <= 0 {
		latency = slices.Max(counts)
	}
	ds := counts
	if !slices.Contains(counts, latency) {
		ds = append(slices.Clip(counts), latency)
	}

	var lists [][]bgp.ASN
	topList, random := -1, map[int]int{} // indices into lists; random by monitor count
	listFor := func(policy MonitorPolicy, d int) (list, size int, err error) {
		if policy == MonitorsTopDegree {
			if topList < 0 {
				topList = len(lists)
				lists = append(lists, g.TopByDegree(slices.Max(ds)))
			}
			return topList, min(d, len(lists[topList])), nil
		}
		list, ok := random[d]
		if !ok {
			monitors, err := pickMonitors(g, d, policy, a.cfg.Seed)
			if err != nil {
				return 0, 0, err
			}
			list = len(lists)
			random[d] = list
			lists = append(lists, monitors)
		}
		return list, len(lists[list]), nil
	}
	// Plan the tasks: acc[v][c] indexes variant v's task at counts[c] and
	// lat[v] its latency task, shared when the latency count is one of
	// the counts.
	var tasks []evalTask
	acc := make([][]int, len(variants))
	lat := make([]int, len(variants))
	for v, vr := range variants {
		rels := vr.Rels
		if rels == nil {
			rels = g
		}
		for c, d := range ds {
			list, size, err := listFor(vr.Policy, d)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, evalTask{list: list, d: size, rels: rels})
			if c < len(counts) {
				acc[v] = append(acc[v], len(tasks)-1)
			}
			if d == latency {
				lat[v] = len(tasks) - 1
			}
		}
	}
	byList := make([][]int, len(lists))
	for t, tk := range tasks {
		byList[tk.list] = append(byList[tk.list], t)
	}
	sets := make([]detect.MonitorSet, len(lists))
	for li, list := range lists {
		sets[li] = detect.NewMonitorSet(g, list)
	}

	verdicts, err := parallel.MapScratchErr(ctx, len(a.impacts), a.cfg.Workers, detect.NewEvalScratch,
		func(sc *detect.EvalScratch, i int) ([]detect.EvalResult, error) {
			out := make([]detect.EvalResult, len(tasks))
			for li, set := range sets {
				sc.Load(a.impacts[i], set)
				for _, t := range byList[li] {
					out[t] = sc.Verdict(tasks[t].d, tasks[t].rels)
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, fmt.Errorf("experiment: detection evaluation cancelled: %w", err)
	}

	n := float64(len(a.impacts))
	outs := make([]*DetectionOutcome, len(variants))
	for v := range variants {
		out := &DetectionOutcome{
			UsablePairs:             len(a.impacts),
			PollutedBeforeDetection: make([]float64, len(verdicts)),
			LatencyDetected:         make([]bool, len(verdicts)),
		}
		for c, d := range counts {
			var detected, high, attributed int
			for _, verdict := range verdicts {
				ev := verdict[acc[v][c]]
				if ev.Detected {
					detected++
				}
				if ev.DetectedHigh {
					high++
				}
				if ev.Attributed {
					attributed++
				}
			}
			out.Accuracy = append(out.Accuracy, AccuracyPoint{
				Monitors:   d,
				Detected:   float64(detected) / n,
				High:       float64(high) / n,
				Attributed: float64(attributed) / n,
			})
		}
		for i, verdict := range verdicts {
			out.PollutedBeforeDetection[i] = verdict[lat[v]].PollutedBeforeDetection
			out.LatencyDetected[i] = verdict[lat[v]].Detected
		}
		outs[v] = out
	}
	return outs, nil
}

func pickMonitors(g *topology.Graph, d int, policy MonitorPolicy, seed int64) ([]bgp.ASN, error) {
	switch policy {
	case MonitorsTopDegree:
		return g.TopByDegree(d), nil
	case MonitorsRandom:
		asns := g.ASNs()
		rng := rand.New(rand.NewSource(stats.DeriveSeedIndexed(seed, "detection.monitors.random", d)))
		rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
		if d > len(asns) {
			d = len(asns)
		}
		return asns[:d], nil
	default:
		return nil, fmt.Errorf("experiment: unknown monitor policy %d", policy)
	}
}
