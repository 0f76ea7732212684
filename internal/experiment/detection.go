package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

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

// RunDetectionCtx is RunDetection with cooperative cancellation, checked
// between attack legs and every per-monitor-count evaluation pass.
// Detection needs the full Impact (monitor paths), so the attack results
// are freshly allocated; the legs still run through the sweep executor,
// which shares each victim's baseline across its legs. Returns
// (nil, ctx.Err()) when cancelled.
func RunDetectionCtx(ctx context.Context, g *topology.Graph, cfg DetectionConfig) (*DetectionOutcome, error) {
	if len(cfg.MonitorCounts) == 0 || cfg.Pairs <= 0 {
		return nil, errors.New("experiment: empty detection config")
	}
	if cfg.Prepend < 2 {
		return nil, errors.New("experiment: detection needs λ >= 2 (something to strip)")
	}
	rels := cfg.Rels
	if rels == nil {
		rels = g
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

	out := &DetectionOutcome{UsablePairs: len(usable)}
	latencyCount := cfg.LatencyMonitors
	if latencyCount <= 0 {
		for _, d := range cfg.MonitorCounts {
			if d > latencyCount {
				latencyCount = d
			}
		}
	}
	for _, d := range cfg.MonitorCounts {
		monitors, err := pickMonitors(g, d, cfg.Policy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		evals, cerr := parallel.MapScratchErr(ctx, len(usable), cfg.Workers, detect.NewEvalScratch,
			func(sc *detect.EvalScratch, i int) (detect.EvalResult, error) {
				return detect.EvaluateScratch(usable[i], monitors, rels, sc), nil
			})
		if cerr != nil {
			return nil, fmt.Errorf("experiment: detection evaluation cancelled: %w", cerr)
		}
		pt := AccuracyPoint{Monitors: d}
		for _, ev := range evals {
			if ev.Detected {
				pt.Detected++
			}
			if ev.DetectedHigh {
				pt.High++
			}
			if ev.Attributed {
				pt.Attributed++
			}
		}
		n := float64(len(usable))
		pt.Detected /= n
		pt.High /= n
		pt.Attributed /= n
		out.Accuracy = append(out.Accuracy, pt)

		if d == latencyCount {
			out.PollutedBeforeDetection = make([]float64, len(evals))
			out.LatencyDetected = make([]bool, len(evals))
			for i, ev := range evals {
				out.PollutedBeforeDetection[i] = ev.PollutedBeforeDetection
				out.LatencyDetected[i] = ev.Detected
			}
		}
	}
	// A latency count outside MonitorCounts gets its own evaluation pass.
	if out.PollutedBeforeDetection == nil {
		monitors, err := pickMonitors(g, latencyCount, cfg.Policy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		evals, cerr := parallel.MapScratchErr(ctx, len(usable), cfg.Workers, detect.NewEvalScratch,
			func(sc *detect.EvalScratch, i int) (detect.EvalResult, error) {
				return detect.EvaluateScratch(usable[i], monitors, rels, sc), nil
			})
		if cerr != nil {
			return nil, fmt.Errorf("experiment: latency evaluation cancelled: %w", cerr)
		}
		out.PollutedBeforeDetection = make([]float64, len(evals))
		out.LatencyDetected = make([]bool, len(evals))
		for i, ev := range evals {
			out.PollutedBeforeDetection[i] = ev.PollutedBeforeDetection
			out.LatencyDetected[i] = ev.Detected
		}
	}
	return out, nil
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
