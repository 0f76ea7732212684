package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"aspp"
	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/experiment"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// pairShape is one phase of the 80k pair sweeps.
type pairShape struct {
	kind    experiment.PairKind
	n       int   // pairs per SamplePairs call
	lambdas []int // one SamplePairs call per λ
	violate bool
}

var (
	// Fig. 8 shape: random pairs share almost no victim, so nearly every
	// draw pays its own baseline propagation.
	randomShape = pairShape{kind: aspp.PairsRandom, n: 512, lambdas: []int{3}, violate: true}
	// Fig. 7 shape: every ordered tier-1 pair; 16 victims, so most
	// baselines are cache hits and the attack legs dominate.
	tier1Shape = pairShape{kind: aspp.PairsTier1, n: 240, lambdas: []int{2, 3, 4}}
)

// pairOut is one simulated pair as the sweep returned it.
type pairOut struct {
	Victim, Attacker bgp.ASN
	Lambda           int
	Before, After    float64
}

// pairsJob is what one measured child process reports.
type pairsJob struct {
	SetupS   float64 // topology build
	PhaseS   float64 // the SamplePairs calls
	PhaseCPU float64 // process CPU seconds during the calls
	MaxRSSMB float64
	Pairs    []pairOut
	Counters map[string]int64 // with -counters only
	Err      string
}

func build80k() (*aspp.Internet, error) {
	return aspp.NewInternet(aspp.WithGenConfig(topology.InternetGenConfig(topology.Internet80kASes)))
}

// runChild runs one measured pair sweep in this process — a fresh process
// per repetition, so its peak RSS and CPU time are its own — and prints
// the pairsJob as JSON.
func runChild(name string, seed int64, counters bool) error {
	shape := randomShape
	switch name {
	case "pairs-random":
	case "pairs-tier1":
		shape = tier1Shape
	default:
		return fmt.Errorf("unknown child job %q", name)
	}
	var job pairsJob
	t0 := time.Now()
	in, err := build80k()
	if err != nil {
		return err
	}
	job.SetupS = time.Since(t0).Seconds()
	var c *aspp.Counters
	if counters {
		c = new(aspp.Counters)
	}
	cpu0 := selfUsage().CPUS
	t1 := time.Now()
	for _, lam := range shape.lambdas {
		res, err := in.SamplePairsCtx(context.Background(), aspp.PairConfig{
			Kind: shape.kind, N: shape.n, Prepend: lam, Violate: shape.violate, Seed: seed, Counters: c,
		})
		if err != nil {
			job.Err = err.Error()
		}
		for _, p := range res {
			job.Pairs = append(job.Pairs, pairOut{p.Victim, p.Attacker, lam, p.Before, p.After})
		}
	}
	job.PhaseS = time.Since(t1).Seconds()
	u := selfUsage()
	job.PhaseCPU, job.MaxRSSMB = u.CPUS-cpu0, u.MaxRSSMB
	if c != nil {
		job.Counters, err = parseCounters(c.Snapshot().String())
		if err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(job)
}

// runPairsJob starts one child repetition and decodes its report.
func runPairsJob(name string, seed int64, counters bool) (pairsJob, error) {
	exe, err := os.Executable()
	if err != nil {
		return pairsJob{}, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10)}
	if counters {
		args = append(args, "-counters")
	}
	cmd := command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return pairsJob{}, fmt.Errorf("child %s: %w", name, err)
	}
	var job pairsJob
	if err := json.Unmarshal(out, &job); err != nil {
		return pairsJob{}, fmt.Errorf("child %s: %w", name, err)
	}
	return job, nil
}

// checkJob counts the job's pairs as attempted and fails any shortfall,
// sweep error, or pair differing from first's (a repetition of the same
// input; skipped when first is empty).
func checkJob(r *report, shape pairShape, job, first pairsJob) {
	want := shape.n * len(shape.lambdas)
	r.attempted += int64(want)
	if job.Err != "" {
		r.fail("pairs: sweep error: %s", job.Err)
	}
	if len(job.Pairs) != want {
		r.failed += int64(max(0, want-len(job.Pairs)))
		r.failures = append(r.failures, fmt.Sprintf("pairs: %d of %d pairs returned", len(job.Pairs), want))
		return
	}
	if first.Pairs == nil {
		return
	}
	for i, p := range job.Pairs {
		if i >= len(first.Pairs) || p != first.Pairs[i] {
			r.fail("pairs: pair %d (%v/%v λ=%d) differs between runs of one seed", i, p.Victim, p.Attacker, p.Lambda)
		}
	}
}

func runPairsRandom(e *runEnv) error { return runPairs(e, "pairs-random", randomShape) }
func runPairsTier1(e *runEnv) error  { return runPairs(e, "pairs-tier1", tier1Shape) }

// runPairs measures one phase of the 80k pair sweeps through the public
// aspp API, a fresh child process per repetition.
func runPairs(e *runEnv, name string, shape pairShape) error {
	if e.traced {
		return tracePairs(e, name, shape)
	}
	var setup, rate, cpu, rss []float64
	var first pairsJob
	start := time.Now()
	for rep := 0; rep < 3 || !e.deadline(start); rep++ {
		job, err := runPairsJob(name, e.repSeed(rep), false)
		if err != nil {
			return err
		}
		var same pairsJob // the earlier repetition of this input, if any
		if rep == 1 {
			same = first
		}
		checkJob(e.rep, shape, job, same)
		if rep == 0 {
			first = job
		}
		n := float64(len(job.Pairs))
		setup = append(setup, job.SetupS)
		rate = append(rate, n/job.PhaseS)
		cpu = append(cpu, job.PhaseCPU/n*1e6)
		rss = append(rss, job.MaxRSSMB)
		e.rep.note("rep %d: topology %.3fs sweep %.3fs (%.1f pairs/s) cpu %.3fs rss %.1fMB",
			rep, job.SetupS, job.PhaseS, n/job.PhaseS, job.PhaseCPU, job.MaxRSSMB)
	}
	e.rep.e2e["setup_s"] = median(setup)
	e.rep.e2e["ops_per_s"] = median(rate)
	e.rep.e2e["cpu_us_per_op"] = median(cpu)
	e.rep.e2e["peak_rss_mb"] = median(rss)

	in, err := build80k()
	if err != nil {
		return err
	}
	checkReference(e.rep, in.Graph(), shape, first.Pairs, e.seed)
	return nil
}

// referenceChecks is how many drawn pairs are re-simulated on the
// message-level reference engine (~170 ms per propagation at 80k ASes).
const referenceChecks = 3

// checkReference re-simulates a few drawn pairs with
// routing.PropagateReference and compares their polluted fractions with
// what the sweep returned.
func checkReference(r *report, g *topology.Graph, shape pairShape, pairs []pairOut, seed int64) {
	if len(pairs) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < referenceChecks; i++ {
		p := pairs[rng.Intn(len(pairs))]
		r.attempted++
		before, after, err := referencePollution(g, p, shape.violate)
		switch {
		case err != nil:
			r.fail("reference %v/%v: %v", p.Victim, p.Attacker, err)
		case before != p.Before || after != p.After:
			r.fail("reference %v/%v λ=%d: polluted %.6f→%.6f, sweep returned %.6f→%.6f",
				p.Victim, p.Attacker, p.Lambda, before, after, p.Before, p.After)
		}
	}
}

// referencePollution computes the pair's pollution fractions before and
// after the attack on the reference engine, with the eligibility rule of
// the sweeps: every AS reachable in the baseline except the victim and
// the attacker.
func referencePollution(g *topology.Graph, p pairOut, violate bool) (before, after float64, err error) {
	ann := routing.Announcement{Origin: p.Victim, Prepend: p.Lambda}
	base, err := routing.PropagateReference(g, ann, nil)
	if err != nil {
		return 0, 0, err
	}
	atk := routing.Attacker{AS: p.Attacker, ViolateValleyFree: violate}
	attacked, err := routing.PropagateReference(g, ann, &atk)
	if err != nil {
		return 0, 0, err
	}
	via := base.ViaSet(p.Attacker)
	vIdx, _ := g.Index(p.Victim)
	aIdx, _ := g.Index(p.Attacker)
	var eligible, nb, na int
	for i := int32(0); i < int32(g.NumASes()); i++ {
		if i == vIdx || i == aIdx || !base.ReachableIdx(i) {
			continue
		}
		eligible++
		if via[i] {
			nb++
		}
		if attacked.Via[i] {
			na++
		}
	}
	if eligible == 0 {
		return 0, 0, nil
	}
	return float64(nb) / float64(eligible), float64(na) / float64(eligible), nil
}

// tracePairs makes one child repetition with the program's counters on,
// then replays its (victim, attacker, λ) list through
// BaselineCache.Get and core.SimulateCountsEngine — once with a span
// around every call, once without for the tracing overhead — checking
// both times that the replay reproduces every returned fraction.
func tracePairs(e *runEnv, name string, shape pairShape) error {
	tr, L := e.tr, e.rep.layer
	root := tr.begin("pairs.run", -1)
	sp := tr.begin("pairs.child_sweep", root)
	job, err := runPairsJob(name, e.repSeed(0), true)
	tr.end(sp)
	if err != nil {
		return err
	}
	checkJob(e.rep, shape, job, pairsJob{})
	c := job.Counters
	L["routing.prop_base"] = float64(c["prop_base"])
	L["routing.prop_delta"] = float64(c["prop_delta"] + c["prop_delta_batch"])
	L["routing.prop_full"] = float64(c["prop_full"])
	L["routing.prop_batch"] = float64(c["prop_batch"])
	if n := c["cache_hit"] + c["cache_miss"]; n > 0 {
		L["experiment.cache_hit_ratio"] = float64(c["cache_hit"]) / float64(n)
	}
	skipped := c["skip_unreachable"] + c["skip_ineffective"]
	L["experiment.skip_ratio"] = float64(skipped) / float64(int64(len(job.Pairs))+skipped)
	L["parallel.busy_share"] = job.PhaseCPU / (job.PhaseS * float64(runtime.GOMAXPROCS(0)))

	sp = tr.begin("topology.generate", root)
	in, err := build80k()
	tr.end(sp)
	if err != nil {
		return err
	}
	g := in.Graph()
	L["topology.generate_s"] = float64(tr.spans[sp].dur()) / 1e9
	L["topology.csr_mb"] = float64(g.MemoryBytes()) / (1 << 20)

	sp = tr.begin("experiment.replay", root)
	gets, sims, peak := replayPairs(e.rep, tr, sp, g, shape, job.Pairs)
	tr.end(sp)
	traced := float64(tr.spans[sp].dur()) / 1e9
	sp = tr.begin("experiment.replay_untraced", root)
	replayPairs(e.rep, nil, -1, g, shape, job.Pairs)
	tr.end(sp)
	untraced := float64(tr.spans[sp].dur()) / 1e9

	setDist(L, "experiment.baseline_get", gets)
	setDist(L, "core.simulate", sims)
	L["experiment.cache_peak_mb"] = float64(peak) / (1 << 20)

	sp = tr.begin("routing.reference_check", root)
	checkReference(e.rep, g, shape, job.Pairs, e.seed)
	tr.end(sp)
	tr.end(root)
	L["trace.wall_s"] = float64(tr.spans[root].dur()) / 1e9
	L["trace.overhead"] = traced/untraced - 1
	finishTrace(e, root)
	return nil
}

// setDist reports a call-duration sample (milliseconds) as
// <prefix>_calls, _ms_p50, _ms_tail, _tail_pct and _busy_s.
func setDist(L map[string]float64, prefix string, ms []float64) {
	d := summarize(ms)
	L[prefix+"_calls"] = float64(d.N)
	L[prefix+"_ms_p50"] = d.P50
	L[prefix+"_ms_tail"] = d.Tail
	L[prefix+"_tail_pct"] = d.TailPct
	L[prefix+"_busy_s"] = sum(ms) / 1e3
}

// replayPairs re-runs each pair's baseline lookup and attack leg serially
// and checks the counts against the sweep's. With a tracer it records a
// span per call under parent and returns the call durations in
// milliseconds; it always returns the cache's peak bytes.
func replayPairs(r *report, tr *tracer, parent int, g *topology.Graph, shape pairShape, pairs []pairOut) (gets, sims []float64, peak int64) {
	// A budget no sweep reaches: nothing is evicted, as in the sweeps'
	// unbounded cache, but the cache accounts its bytes for PeakBytes.
	cache := experiment.NewBaselineCacheBudget(g, nil, math.MaxInt64, 1)
	s := routing.NewScratch()
	for _, p := range pairs {
		r.attempted++
		sp := tr.begin("experiment.baseline_get", parent)
		base, err := cache.Get(p.Victim, p.Lambda)
		tr.end(sp)
		if tr != nil {
			gets = append(gets, float64(tr.spans[sp].dur())/1e6)
		}
		if err != nil {
			r.fail("replay baseline %v λ=%d: %v", p.Victim, p.Lambda, err)
			continue
		}
		sp = tr.begin("core.simulate", parent)
		cnt, err := core.SimulateCountsEngine(g, core.Scenario{
			Victim: p.Victim, Attacker: p.Attacker, Prepend: p.Lambda, ViolateValleyFree: shape.violate,
		}, base, s, core.EngineAuto)
		tr.end(sp)
		if tr != nil {
			sims = append(sims, float64(tr.spans[sp].dur())/1e6)
		}
		if err != nil {
			r.fail("replay %v/%v: %v", p.Victim, p.Attacker, err)
		} else if cnt.Before() != p.Before || cnt.After() != p.After {
			r.fail("replay %v/%v λ=%d: %.6f→%.6f, sweep returned %.6f→%.6f",
				p.Victim, p.Attacker, p.Lambda, cnt.Before(), cnt.After(), p.Before, p.After)
		}
	}
	return gets, sims, cache.PeakBytes()
}
