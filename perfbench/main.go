// Command perfbench is the repository's benchmark of record. It runs one
// workload against the programs as users run them — cmd/asppbench as a
// child process, the public aspp API at Internet scale, and the
// cmd/asppserve daemon over loopback TCP — checks their outputs, and
// prints the metrics as one JSON object on the last line of its output.
//
// Usage (from the root of a checkout, through the wrapper that builds the
// programs first):
//
//	bash perfbench/run.sh --workload figures-4k --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate traced run that times calls into each layer from the
// benchmark's own code and reports the per-layer metrics. README.md in
// this directory lists the workloads and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir holds everything the benchmark builds or writes, relative to
// the checkout root (perfbench/run.sh builds the programs into it).
const buildDir = ".bench_build"

var (
	binDir   = filepath.Join(buildDir, "bin")
	traceDir = filepath.Join(buildDir, "trace")
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the programs sees, reported by every
// workload with tracing off. Operations are figure experiments
// (figures-4k), pairs (pairs-80k-*) or updates (serve-*).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
}

// perLayer are the traced run's metrics. A workload reports the layers it
// exercises; the others read 0 on that workload.
var perLayer = []metricDef{
	{"topology.generate_s", "s"},
	{"topology.csr_mb", "MB"},
	{"experiment.baseline_get_calls", "count"},
	{"experiment.baseline_get_ms_p50", "ms"},
	{"experiment.baseline_get_ms_tail", "ms"},
	{"experiment.baseline_get_tail_pct", "%"},
	{"experiment.baseline_get_busy_s", "s"},
	{"experiment.cache_hit_ratio", "ratio"},
	{"experiment.skip_ratio", "ratio"},
	{"experiment.cache_peak_mb", "MB"},
	{"core.simulate_calls", "count"},
	{"core.simulate_ms_p50", "ms"},
	{"core.simulate_ms_tail", "ms"},
	{"core.simulate_tail_pct", "%"},
	{"core.simulate_busy_s", "s"},
	{"routing.prop_base", "count"},
	{"routing.prop_delta", "count"},
	{"routing.prop_full", "count"},
	{"routing.prop_batch", "count"},
	{"parallel.busy_share", "ratio"},
	{"asppbench.fig1_s", "s"},
	{"asppbench.table1_s", "s"},
	{"asppbench.fig5_s", "s"},
	{"asppbench.fig6_s", "s"},
	{"asppbench.fig7_s", "s"},
	{"asppbench.fig8_s", "s"},
	{"asppbench.fig9_s", "s"},
	{"asppbench.fig10_s", "s"},
	{"asppbench.fig11_s", "s"},
	{"asppbench.fig12_s", "s"},
	{"asppbench.fig13_s", "s"},
	{"asppbench.fig14_s", "s"},
	{"asppbench.compare_s", "s"},
	{"asppbench.defense_s", "s"},
	{"asppbench.inference_s", "s"},
	{"asppbench.mitigation_s", "s"},
	{"asppbench.susceptibility_s", "s"},
	{"bgp.decode_ns_per_frame", "ns"},
	{"bgp.bytes_per_frame", "B"},
	{"detect.observe_ns_per_update", "ns"},
	{"detect.alarms_per_update", "ratio"},
	{"detect.state_bytes_per_prefix", "B"},
	{"serve.pipeline_ups", "1/s"},
	{"serve.batch_fill", "count"},
	{"serve.queue_peak", "count"},
	{"serve.wait_p50_ms", "ms"},
	{"serve.wait_p99_ms", "ms"},
	{"serve.e2e_p50_ms", "ms"},
	{"serve.e2e_tail_ms", "ms"},
	{"serve.e2e_tail_pct", "%"},
	{"serve.e2e_samples", "count"},
	{"serve.late_ms_p50", "ms"},
	{"serve.late_ms_tail", "ms"},
	{"serve.late_samples", "count"},
	{"serve.useful_cpu_ratio", "ratio"},
	{"serve.scrape_ms_p50", "ms"},
	{"serve.scrape_ms_tail", "ms"},
	{"serve.scrape_tail_pct", "%"},
	{"serve.scrape_samples", "count"},
	{"gen.sink_ups", "1/s"},
	{"gen.headroom", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// runEnv is what a workload needs: its arguments and the report it fills.
type runEnv struct {
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer // nil unless traced
	rep     *report
}

// deadline reports whether the run's measuring time is used up.
func (e *runEnv) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= e.seconds
}

// repSeed is the input seed of repetition rep. The first two repetitions
// share one input, so every run checks that the program's output repeats;
// later ones draw fresh inputs from the run's seed, so a run's median
// averages over several inputs rather than resting on one.
func (e *runEnv) repSeed(rep int) int64 {
	return e.seed*1000 + int64(max(0, rep-1))
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	failures          []string
	e2e, layer        map[string]float64
	notes             []string
}

// fail counts one failed operation or check, with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// note adds a human-readable line printed before the result.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runEnv) error{
	"figures-4k":       runFigures,
	"pairs-80k-random": runPairsRandom,
	"pairs-80k-tier1":  runPairsTier1,
	"serve-replay":     runServeReplay,
	"serve-table-dump": runServeTableDump,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "measuring time of the run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		child    = flag.String("child", "", "internal: run one measured child job and print its JSON")
		counters = flag.Bool("counters", false, "internal: child collects the program's obs counters")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*child, *seed, *counters); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	fn, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, names)
	}
	for _, p := range []string{"asppbench", "asppserve"} {
		if _, err := os.Stat(filepath.Join(binDir, p)); err != nil {
			return fmt.Errorf("program %s not built (run through perfbench/run.sh): %w", p, err)
		}
	}
	env := &runEnv{seed: seed, seconds: seconds, traced: traced, rep: &report{
		e2e: make(map[string]float64), layer: make(map[string]float64),
	}}
	runID := fmt.Sprintf("%s-seed%d", workload, seed)
	if traced {
		env.tr = newTracer(runID)
	}
	if err := fn(env); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if traced {
		if err := env.tr.write(traceDir); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return emit(os.Stdout, env.rep, traced)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the notes, a metric table and the result JSON as the last
// line.
func emit(w *os.File, r *report, traced bool) error {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "# FAILED:", f)
	}
	res := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
