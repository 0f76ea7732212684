package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"aspp/internal/bgp"
	"aspp/internal/detect"
	"aspp/internal/serve"
	"aspp/internal/topology"
)

const (
	// replayUpdates is about how many updates one saturated serve-replay
	// phase sends (a whole number of corpus cycles).
	replayUpdates = 1_500_000
	// pacedRate and pacedSeconds shape the fixed-rate phase: about a
	// quarter of the daemon's saturated capacity, where the cost is how
	// its workers wait for work.
	pacedRate    = 250_000
	pacedSeconds = 1.5
	pacedTick    = time.Millisecond
	// scrapeEvery is the monitoring scraper's fixed low rate during
	// ingest; progressEvery is the traced run's finer /metrics poll that
	// timestamps when each tick's updates were processed.
	scrapeEvery   = 100 * time.Millisecond
	progressEvery = 2 * time.Millisecond
	// minHeadroom is how much faster than the daemon the generator must
	// be able to send, so the saturated rates measure the daemon.
	minHeadroom = 2
)

// phase is one daemon run over one feed.
type phase struct {
	SetupS   float64
	Sent     int64
	WallS    float64 // first byte sent until /metrics showed all processed
	CPUS     float64 // daemon CPU over the same interval
	Usage    usage   // daemon's whole-life resource use
	Metrics  map[string]float64
	Ticks    []tick     // paced phases
	Progress []progress // traced paced phase
	Scrapes  []float64  // scrape latencies, ms
}

func (p phase) ups() float64            { return float64(p.Sent) / p.WallS }
func (p phase) cpuUsPerUpdate() float64 { return p.CPUS / float64(p.Sent) * 1e6 }

// runPhase starts a fresh daemon, feeds it (saturated when rate is 0,
// else paced), waits until every update is processed, and stops it. It
// checks the daemon lost nothing and raised wantAlarms alarms.
func runPhase(r *report, f *feed, cycles int, total int64, rate float64, wantAlarms int64, traced bool) (phase, error) {
	d, err := startDaemon()
	if err != nil {
		return phase{}, err
	}
	ph, err := drivePhase(d, f, cycles, total, rate, traced)
	u, serr := d.stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		return phase{}, err
	}
	ph.Usage = u
	m := ph.Metrics
	r.attempted += total
	if dropped := int64(m["aspp_serve_dropped_total"]); dropped > 0 {
		r.failed += dropped
		r.failures = append(r.failures, fmt.Sprintf("serve: %d updates dropped under the block policy", dropped))
	}
	if got := int64(m["aspp_serve_processed_total"]); got != total {
		r.fail("serve: %d updates processed, %d sent", got, total)
	}
	if bad := m["aspp_frames_bad_total"]; bad != 0 {
		r.fail("serve: %.0f malformed frames", bad)
	}
	if got := int64(m["aspp_serve_alarms_total"]); got != wantAlarms {
		r.fail("serve: %d alarms, serial detect.Detector replay raised %d", got, wantAlarms)
	}
	return ph, nil
}

func drivePhase(d *daemon, f *feed, cycles int, total int64, rate float64, traced bool) (phase, error) {
	ph := phase{SetupS: d.setupS, Sent: total}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return ph, err
	}
	scraper := d.poll(scrapeEvery)
	var prog *poller
	if traced {
		prog = d.poll(progressEvery)
	}
	t0 := time.Now()
	if rate == 0 {
		err = sendCycles(d.ingest, f.buf, cycles)
	} else {
		ph.Ticks, err = sendPaced(d.ingest, f, total, rate, pacedTick)
	}
	var seen []progress
	if err == nil {
		seen, err = d.waitProcessed(total)
	}
	ph.WallS = time.Since(t0).Seconds()
	cpu1, cerr := procCPU(d.pid())
	ph.CPUS = cpu1 - cpu0
	ph.Scrapes = scraper.stop().took
	if prog != nil {
		ph.Progress = append(prog.stop().seen, seen...)
	}
	if err == nil {
		err = cerr
	}
	if err != nil {
		return ph, err
	}
	ph.Metrics, err = d.metrics()
	return ph, err
}

// serveInputs is a workload's feed and the checks' expectations.
type serveInputs struct {
	g        *topology.Graph
	monitors []bgp.ASN
	feed     *feed
	cycles   int     // saturated phase: cycles of feed
	alarms   []int64 // serial replay's cumulative alarms per cycle
	prefixes int
	// pieces split one cycle of the feed into what the traced run loads
	// at once: the whole churn corpus, or one monitor's table dump.
	pieces [][]byte
}

func (in *serveInputs) total(cycles int) int64 { return int64(cycles) * int64(in.feed.frames) }

func replayInputs(g *topology.Graph, monitors []bgp.ASN, seed int64) (*serveInputs, error) {
	corpus, err := churnCorpus(g, monitors, seed)
	if err != nil {
		return nil, err
	}
	f, err := encodeFeed(corpus)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		g: g, monitors: monitors, feed: f,
		cycles: max(1, replayUpdates/len(corpus)),
		pieces: [][]byte{f.buf},
	}
	seen := map[netip.Prefix]bool{}
	for _, u := range corpus {
		seen[u.Prefix] = true
	}
	in.prefixes = len(seen)
	in.alarms, err = serialAlarms(g, monitors, f.buf, max(in.cycles, pacedCycles(f)))
	return in, err
}

// pacedCycles is the fixed-rate phase's length in whole corpus cycles.
func pacedCycles(f *feed) int {
	return max(1, int(pacedRate*pacedSeconds/float64(f.frames)+0.5))
}

func dumpInputs(seed int64) (*serveInputs, error) {
	g, monitors, err := daemonWorld()
	if err != nil {
		return nil, err
	}
	f, prefixes, err := tableDump(g, monitors, seed)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{g: g, monitors: monitors, feed: f, cycles: 1, prefixes: prefixes}
	for i := 1; i < len(f.offs); i++ {
		in.pieces = append(in.pieces, f.buf[f.offs[i-1]:f.offs[i]])
	}
	in.alarms, err = serialAlarms(g, monitors, f.buf, 1)
	return in, err
}

// checkHeadroom measures the generator against a discarding sink and
// fails the run when it cannot send minHeadroom times the daemon's rate.
func checkHeadroom(r *report, in *serveInputs, daemonUps float64) float64 {
	sink, err := sinkRate(in.feed.buf, in.cycles, in.total(in.cycles))
	r.attempted++
	if err != nil {
		r.fail("generator sink: %v", err)
		return 0
	}
	r.note("generator into a discarding sink: %.0f updates/s, %.1f× the daemon's %.0f", sink, sink/daemonUps, daemonUps)
	if sink < minHeadroom*daemonUps {
		r.fail("generator sends only %.1f× the daemon's rate into a sink (need %d×)", sink/daemonUps, minHeadroom)
	}
	return sink
}

// runServeReplay measures asppserve on the churn corpus replayed over one
// loopback connection: a saturated phase for throughput and a 250k/s
// phase for CPU per update, each on a fresh daemon.
func runServeReplay(e *runEnv) error {
	g, monitors, err := daemonWorld()
	if err != nil {
		return err
	}
	var in *serveInputs
	var setup, ups, cpu, rss []float64
	start := time.Now()
	for rep := 0; rep < 3 || !e.deadline(start); rep++ {
		if rep != 1 { // the first two repetitions share an input
			if in, err = replayInputs(g, monitors, e.repSeed(rep)); err != nil {
				return err
			}
			e.rep.note("churn corpus: %d updates over %d prefixes; saturated phase %d updates, paced phase %d at %d/s",
				in.feed.frames, in.prefixes, in.total(in.cycles), in.total(pacedCycles(in.feed)), pacedRate)
		}
		if e.traced {
			return traceServe(e, in, true)
		}
		sat, paced, err := replayRep(e.rep, in)
		if err != nil {
			return err
		}
		setup = append(setup, sat.SetupS, paced.SetupS)
		ups = append(ups, sat.ups())
		cpu = append(cpu, paced.cpuUsPerUpdate())
		rss = append(rss, sat.Usage.MaxRSSMB, paced.Usage.MaxRSSMB)
		late := summarize(lateness(paced.Ticks))
		e.rep.note("rep %d: setup %.3fs/%.3fs saturated %.0f updates/s, paced %.2fus CPU/update (%.0f/s, generator late p50 %.3fms p%g %.3fms), rss %.1f/%.1fMB",
			rep, sat.SetupS, paced.SetupS, sat.ups(), paced.cpuUsPerUpdate(), paced.ups(),
			late.P50, late.TailPct, late.Tail, sat.Usage.MaxRSSMB, paced.Usage.MaxRSSMB)
	}
	e.rep.e2e["setup_s"] = median(setup)
	e.rep.e2e["ops_per_s"] = median(ups)
	e.rep.e2e["cpu_us_per_op"] = median(cpu)
	e.rep.e2e["peak_rss_mb"] = median(rss)
	checkHeadroom(e.rep, in, median(ups))
	return nil
}

// replayRep is one serve-replay repetition: saturated, then paced.
func replayRep(r *report, in *serveInputs) (sat, paced phase, err error) {
	sat, err = runPhase(r, in.feed, in.cycles, in.total(in.cycles), 0, in.alarms[in.cycles], false)
	if err != nil {
		return
	}
	pc := pacedCycles(in.feed)
	paced, err = runPhase(r, in.feed, pc, in.total(pc), pacedRate, in.alarms[pc], false)
	return
}

// runServeTableDump measures asppserve on full-table dumps: every update
// of the first monitor's dump inserts a new prefix row.
func runServeTableDump(e *runEnv) error {
	in, err := dumpInputs(e.seed)
	if err != nil {
		return err
	}
	e.rep.note("table dump: %d updates over %d prefixes, %d bytes", in.feed.frames, in.prefixes, len(in.feed.buf))
	if e.traced {
		return traceServe(e, in, false)
	}
	var setup, ups, cpu, rss []float64
	start := time.Now()
	for rep := 0; rep < 3 || !e.deadline(start); rep++ {
		ph, err := runPhase(e.rep, in.feed, 1, in.total(1), 0, in.alarms[1], false)
		if err != nil {
			return err
		}
		setup = append(setup, ph.SetupS)
		ups = append(ups, ph.ups())
		cpu = append(cpu, ph.cpuUsPerUpdate())
		rss = append(rss, ph.Usage.MaxRSSMB)
		e.rep.note("rep %d: setup %.3fs %.0f updates/s %.2fus CPU/update rss %.1fMB",
			rep, ph.SetupS, ph.ups(), ph.cpuUsPerUpdate(), ph.Usage.MaxRSSMB)
	}
	e.rep.e2e["setup_s"] = median(setup)
	e.rep.e2e["ops_per_s"] = median(ups)
	e.rep.e2e["cpu_us_per_op"] = median(cpu)
	e.rep.e2e["peak_rss_mb"] = median(rss)
	checkHeadroom(e.rep, in, median(ups))
	return nil
}

// traceServe is the traced run of a serve workload: one untraced
// repetition; the feed replayed from memory through the public bgp,
// detect and serve calls; and the phase that sets cpu_us_per_op (paced on
// serve-replay, saturated on serve-table-dump) once more with the fine
// progress poll, for open-loop latency and the tracing overhead.
func traceServe(e *runEnv, in *serveInputs, replay bool) error {
	tr, L, r := e.tr, e.rep.layer, e.rep
	root := tr.begin("serve.run", -1)

	var sat, paced phase
	var err error
	sp := tr.begin("serve.daemon_untraced", root)
	if replay {
		sat, paced, err = replayRep(r, in)
	} else {
		sat, err = runPhase(r, in.feed, 1, in.total(1), 0, in.alarms[1], false)
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("gen.sink", root)
	sink := checkHeadroom(r, in, sat.ups())
	tr.end(sp)
	L["gen.sink_ups"] = sink
	L["gen.headroom"] = sink / sat.ups()

	decNs := decodeLayer(e, root, in)
	obsNs := observeLayer(e, root, in, replay)
	pipelineLayer(e, root, in, replay)

	cpuPhase, cycles, rate := sat, in.cycles, 0.0
	if replay {
		cpuPhase, cycles, rate = paced, pacedCycles(in.feed), pacedRate
	}
	sp = tr.begin("serve.daemon_traced", root)
	traced, err := runPhase(r, in.feed, cycles, in.total(cycles), rate, in.alarms[cycles], true)
	tr.end(sp)
	if err != nil {
		return err
	}
	pipelineReadings(L, cpuPhase.Metrics)
	openLoopLayer(L, traced)
	L["trace.overhead"] = traced.cpuUsPerUpdate()/cpuPhase.cpuUsPerUpdate() - 1
	r.note("%.2fus CPU/update untraced, %.2fus with the %v progress poll",
		cpuPhase.cpuUsPerUpdate(), traced.cpuUsPerUpdate(), progressEvery)
	L["serve.useful_cpu_ratio"] = (decNs + obsNs) / 1e3 / cpuPhase.cpuUsPerUpdate()
	s := summarize(append(sat.Scrapes, paced.Scrapes...))
	L["serve.scrape_ms_p50"], L["serve.scrape_ms_tail"] = s.P50, s.Tail
	L["serve.scrape_tail_pct"], L["serve.scrape_samples"] = s.TailPct, float64(s.N)

	tr.end(root)
	L["trace.wall_s"] = float64(tr.spans[root].dur()) / 1e9
	finishTrace(e, root)
	return nil
}

// openLoopLayer reports a paced phase's generator lateness and open-loop
// latency: from each tick's scheduled send time to the first /metrics
// reading showing its updates processed. A saturated phase has no ticks.
func openLoopLayer(L map[string]float64, ph phase) {
	var e2e []float64
	prog := ph.Progress
	sort.Slice(prog, func(a, b int) bool { return prog[a].At.Before(prog[b].At) })
	j := 0
	for _, t := range ph.Ticks {
		for j < len(prog) && prog[j].Processed < float64(t.Cum) {
			j++
		}
		if j < len(prog) {
			e2e = append(e2e, float64(prog[j].At.Sub(t.Due))/1e6)
		}
	}
	ls, es := summarize(lateness(ph.Ticks)), summarize(e2e)
	L["serve.late_ms_p50"], L["serve.late_ms_tail"], L["serve.late_samples"] = ls.P50, ls.Tail, float64(ls.N)
	L["serve.e2e_p50_ms"], L["serve.e2e_tail_ms"] = es.P50, es.Tail
	L["serve.e2e_tail_pct"], L["serve.e2e_samples"] = es.TailPct, float64(es.N)
}

// pipelineReadings reports the daemon's own /metrics view of a phase.
func pipelineReadings(L map[string]float64, m map[string]float64) {
	L["serve.batch_fill"] = m["aspp_serve_processed_total"] / m["aspp_serve_batches_total"]
	L["serve.queue_peak"] = m["aspp_serve_queue_peak"]
	L["serve.wait_p50_ms"] = m["aspp_serve_latency_p50_ns"] / 1e6
	L["serve.wait_p99_ms"] = m["aspp_serve_latency_p99_ns"] / 1e6
}

// lateness is how late the generator sent each tick, in milliseconds.
func lateness(ticks []tick) []float64 {
	late := make([]float64, len(ticks))
	for i, t := range ticks {
		late[i] = float64(t.Sent.Sub(t.Due)) / 1e6
	}
	return late
}

// decodeLayer times bgp.StreamDecoder.Next over the workload's exact byte
// stream from memory and returns ns per frame.
func decodeLayer(e *runEnv, root int, in *serveInputs) float64 {
	tr, L := e.tr, e.rep.layer
	sp := tr.begin("bgp.decode", root)
	var u bgp.Update
	var frames int64
	for c := 0; c < in.cycles; c++ {
		dec := bgp.NewStreamDecoder(bytes.NewReader(in.feed.buf))
		for {
			err := dec.Next(&u)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				e.rep.fail("decode: %v", err)
				break
			}
			frames++
		}
	}
	tr.end(sp)
	ns := float64(tr.spans[sp].dur()) / float64(frames)
	L["bgp.decode_ns_per_frame"] = ns
	L["bgp.bytes_per_frame"] = float64(len(in.feed.buf)) / float64(in.feed.frames)
	return ns
}

// observeLayer times Detector.ObserveBatch over same-prefix runs of the
// feed and returns ns per update. serve-replay warms the detector with
// one corpus cycle first and times further cycles; serve-table-dump
// times the dump on a fresh detector, where every first-monitor update
// inserts a prefix row.
func observeLayer(e *runEnv, root int, in *serveInputs, replay bool) float64 {
	tr, L := e.tr, e.rep.layer
	d := detect.NewDetector(in.monitors, in.g)
	var alarms []detect.Alarm
	var updates, nAlarms int64
	var busy time.Duration
	observe := func(ups []bgp.Update) {
		t0 := time.Now()
		prefixRuns(ups, func(run []bgp.Update) {
			alarms = d.ObserveBatch(run, alarms[:0])
			nAlarms += int64(len(alarms))
		})
		busy += time.Since(t0)
		updates += int64(len(ups))
	}
	sp := tr.begin("detect.observe", root)
	for _, piece := range in.pieces {
		ups, err := decodeAll(piece)
		if err != nil {
			e.rep.fail("observe: decode: %v", err)
			break
		}
		observe(ups)
		if replay { // that cycle warmed the detector; time later ones
			busy, updates, nAlarms = 0, 0, 0
			for c := 0; c < in.cycles/4; c++ {
				observe(ups)
			}
		}
	}
	tr.end(sp)
	ns := float64(busy) / float64(updates)
	L["detect.observe_ns_per_update"] = ns
	L["detect.alarms_per_update"] = float64(nAlarms) / float64(updates)
	L["detect.state_bytes_per_prefix"] = float64(d.MemoryBytes()) / float64(in.prefixes)
	return ns
}

// pipelineLayer drives the feed through serve.Pipeline.RunLoad with the
// daemon's default configuration: the pipeline without socket or decode.
// The churn corpus is replayed as long as the saturated phase; the table
// dump is loaded monitor by monitor, in feed order.
func pipelineLayer(e *runEnv, root int, in *serveInputs, replay bool) {
	tr := e.tr
	sp := tr.begin("serve.pipeline", root)
	defer tr.end(sp)
	p, err := serve.NewPipeline(serve.Config{Monitors: in.monitors, Rels: in.g})
	if err != nil {
		e.rep.fail("pipeline: %v", err)
		return
	}
	p.Start()
	defer p.Close()
	var processed int64
	var busy time.Duration
	load := func(ups []bgp.Update, total int64) bool {
		rep, err := p.RunLoad(ups, total)
		if err == nil && rep.Dropped > 0 {
			err = fmt.Errorf("%d updates dropped", rep.Dropped)
		}
		if err != nil {
			e.rep.fail("pipeline: %v", err)
			return false
		}
		processed += rep.Processed
		busy += rep.Elapsed
		return true
	}
	for _, piece := range in.pieces {
		ups, err := decodeAll(piece)
		if err != nil {
			e.rep.fail("pipeline: decode: %v", err)
			return
		}
		total := int64(len(ups))
		if replay {
			total = in.total(in.cycles) // the saturated phase's cyclic replay
		}
		if !load(ups, total) {
			return
		}
	}
	e.rep.layer["serve.pipeline_ups"] = float64(processed) / busy.Seconds()
}
