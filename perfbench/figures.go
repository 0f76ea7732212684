package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// figureExperiments is the number of experiments "asppbench -exp all"
// runs: the paper's figures and tables plus the five extensions.
const figureExperiments = 17

// figureRun is one asppbench child process.
type figureRun struct {
	Start, End time.Time // process start, and when it had exited
	Exps       []experimentRun
	Usage      usage
}

func (f figureRun) setupS() float64   { return f.Exps[0].Start.Sub(f.Start).Seconds() }
func (f figureRun) figuresS() float64 { return f.End.Sub(f.Exps[0].Start).Seconds() }

// runAsppbench runs asppbench with args, timestamping its output lines.
func runAsppbench(args ...string) (figureRun, error) {
	cmd := command(filepath.Join(binDir, "asppbench"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return figureRun{}, err
	}
	var fr figureRun
	fr.Start = time.Now()
	if err := cmd.Start(); err != nil {
		return figureRun{}, err
	}
	lines, rerr := readLines(out)
	werr := cmd.Wait()
	fr.End = time.Now()
	if rerr != nil {
		return figureRun{}, rerr
	}
	if werr != nil {
		return figureRun{}, fmt.Errorf("asppbench %s: %w", strings.Join(args, " "), werr)
	}
	fr.Usage = usageOf(cmd.ProcessState)
	fr.Exps, err = parseExperiments(lines, fr.End)
	if err != nil {
		return figureRun{}, err
	}
	if len(fr.Exps) == 0 {
		return figureRun{}, fmt.Errorf("asppbench %s printed no experiment", strings.Join(args, " "))
	}
	return fr, nil
}

// sameFigures compares two runs' figure data (counters lines excluded),
// counting one failed operation per experiment that differs.
func sameFigures(r *report, want, got figureRun) {
	if len(want.Exps) != len(got.Exps) {
		r.fail("figures: %d experiments, first run had %d", len(got.Exps), len(want.Exps))
		return
	}
	for i, e := range got.Exps {
		w := want.Exps[i]
		if e.Name != w.Name || strings.Join(e.Body, "\n") != strings.Join(w.Body, "\n") {
			r.fail("figures: %s output differs between runs of one seed", e.Name)
		}
	}
}

// checkGoldens reruns the pinned golden figures and compares them byte
// for byte with cmd/asppbench/testdata/golden.
func checkGoldens(r *report) error {
	cases := []struct {
		name string
		args []string
	}{
		{"fig9", []string{"-exp", "fig9", "-n", "400", "-seed", "1"}},
		{"fig13", []string{"-exp", "fig13", "-n", "400", "-seed", "1", "-pairs", "20"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("cmd", "asppbench", "testdata", "golden", c.name+".golden"))
		if err != nil {
			return err
		}
		got, err := command(filepath.Join(binDir, "asppbench"), c.args...).Output()
		r.attempted++
		if err != nil {
			r.fail("golden %s: %v", c.name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			r.fail("golden %s: output differs from cmd/asppbench/testdata/golden", c.name)
		}
	}
	return nil
}

// runFigures measures the paper's full evaluation, asppbench -exp all at
// 4000 ASes, run as users run it: a child process with default flags and
// the benchmark's seed.
func runFigures(e *runEnv) error {
	if err := checkGoldens(e.rep); err != nil {
		return err
	}
	args := func(rep int) []string {
		return []string{"-exp", "all", "-n", "4000", "-seed", strconv.FormatInt(e.repSeed(rep), 10)}
	}
	if e.traced {
		return traceFigures(e, args(0))
	}
	var setup, rate, cpu, rss []float64
	var first figureRun
	start := time.Now()
	for rep := 0; rep < 3 || !e.deadline(start); rep++ {
		fr, err := runAsppbench(args(rep)...)
		if err != nil {
			return err
		}
		e.rep.attempted += int64(len(fr.Exps))
		if len(fr.Exps) != figureExperiments {
			e.rep.fail("figures: %d experiments, want %d", len(fr.Exps), figureExperiments)
		}
		switch rep {
		case 0:
			first = fr
		case 1:
			sameFigures(e.rep, first, fr)
		}
		setup = append(setup, fr.setupS())
		rate = append(rate, float64(len(fr.Exps))/fr.figuresS())
		cpu = append(cpu, fr.Usage.CPUS/float64(len(fr.Exps))*1e6)
		rss = append(rss, fr.Usage.MaxRSSMB)
		e.rep.note("rep %d: setup %.3fs figures %.3fs cpu %.3fs rss %.1fMB",
			rep, fr.setupS(), fr.figuresS(), fr.Usage.CPUS, fr.Usage.MaxRSSMB)
	}
	e.rep.e2e["setup_s"] = median(setup)
	e.rep.e2e["ops_per_s"] = median(rate)
	e.rep.e2e["cpu_us_per_op"] = median(cpu)
	e.rep.e2e["peak_rss_mb"] = median(rss)
	return nil
}

// traceFigures makes one untraced and one traced run (-counters, each
// streamed header and counters line stamped as a span boundary), and
// reports per-experiment time, propagation counts and CPU use.
func traceFigures(e *runEnv, args []string) error {
	plain, err := runAsppbench(args...)
	if err != nil {
		return err
	}
	fr, err := runAsppbench(append([]string{"-counters"}, args...)...)
	if err != nil {
		return err
	}
	e.rep.attempted += int64(len(plain.Exps) + len(fr.Exps))
	sameFigures(e.rep, plain, fr)

	tr, L := e.tr, e.rep.layer
	root := tr.add("asppbench.run", -1, fr.Start, fr.End)
	tr.add("asppbench.setup", root, fr.Start, fr.Exps[0].Start)
	var counts = map[string]int64{}
	for _, x := range fr.Exps {
		tr.add("asppbench."+x.Name, root, x.Start, x.End)
		L["asppbench."+x.Name+"_s"] = x.End.Sub(x.Start).Seconds()
		for k, v := range x.Counters {
			counts[k] += v
		}
	}
	L["routing.prop_base"] = float64(counts["prop_base"])
	L["routing.prop_delta"] = float64(counts["prop_delta"] + counts["prop_delta_batch"])
	L["routing.prop_full"] = float64(counts["prop_full"])
	L["routing.prop_batch"] = float64(counts["prop_batch"])
	if n := counts["cache_hit"] + counts["cache_miss"]; n > 0 {
		L["experiment.cache_hit_ratio"] = float64(counts["cache_hit"]) / float64(n)
	}
	wall := fr.End.Sub(fr.Start).Seconds()
	L["parallel.busy_share"] = fr.Usage.CPUS / (wall * float64(runtime.GOMAXPROCS(0)))
	L["trace.wall_s"] = wall
	L["trace.overhead"] = wall/plain.End.Sub(plain.Start).Seconds() - 1
	finishTrace(e, root)
	return nil
}

// finishTrace checks that the spans under root account for its wall time
// within traceTolerance, counting a failed check when they do not.
func finishTrace(e *runEnv, root int) {
	share, ok := consistency(e.tr.spans, root)
	e.rep.layer["trace.unattributed_share"] = share
	e.rep.attempted++
	if !ok {
		e.rep.fail("trace: %.1f%% of the traced wall time is outside every layer span (tolerance %.0f%%)",
			100*share, 100*traceTolerance)
	}
	self := layerSelf(e.tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.rep.note("self %-32s %.4fs", name, self[name])
	}
}
