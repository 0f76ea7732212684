package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// stampLines turns a fixture into stream lines one millisecond apart.
func stampLines(t *testing.T, path string) ([]streamLine, time.Time) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(0, 0)
	var lines []streamLine
	for i, l := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		lines = append(lines, streamLine{At: t0.Add(time.Duration(i) * time.Millisecond), Text: l})
	}
	return lines, t0.Add(time.Duration(len(lines)) * time.Millisecond)
}

// testdata/asppbench-counters.txt is the output of
// "asppbench -exp fig7,fig9 -n 400 -seed 1 -counters".
func TestParseExperiments(t *testing.T) {
	lines, end := stampLines(t, "testdata/asppbench-counters.txt")
	exps, err := parseExperiments(lines, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].Name != "fig7" || exps[1].Name != "fig9" {
		t.Fatalf("got %d experiments %v", len(exps), exps)
	}
	fig7, fig9 := exps[0], exps[1]
	if fig7.Start != lines[0].At || fig7.End != fig9.Start || fig9.End != end {
		t.Errorf("spans do not tile the stream: fig7 %v-%v fig9 %v-%v end %v",
			fig7.Start, fig7.End, fig9.Start, fig9.End, end)
	}
	if got := fig7.Body[0]; got != "rank\tpct_after\tpct_before\tvictim\tattacker" {
		t.Errorf("fig7 first data line %q", got)
	}
	for _, e := range exps {
		for _, l := range e.Body {
			if strings.HasPrefix(l, countersPrefix) {
				t.Errorf("%s: counters line kept in the figure data", e.Name)
			}
		}
	}
	if fig7.Counters["prop_base"] != 10 || fig7.Counters["prop_delta"] != 80 ||
		fig7.Counters["cache_hit"] != 70 || fig7.Counters["cache_miss"] != 10 {
		t.Errorf("fig7 counters %v", fig7.Counters)
	}
	if fig9.Counters["prop_base"] != 8 || fig9.Counters["prop_delta"] != 8 {
		t.Errorf("fig9 counters %v", fig9.Counters)
	}
	if len(fig9.Counters) != 23 {
		t.Errorf("fig9: %d counters, want the 23 of obs.Snapshot", len(fig9.Counters))
	}
}

func TestParseExperimentsRejectsLeadingOutput(t *testing.T) {
	lines := []streamLine{{Text: "stray"}, {Text: "### fig1"}}
	if _, err := parseExperiments(lines, time.Time{}); err == nil {
		t.Error("output before the first header was accepted")
	}
}

func TestParseCountersRejectsMalformed(t *testing.T) {
	for _, s := range []string{"prop_base", "prop_base=x"} {
		if _, err := parseCounters(s); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}

// testdata/metrics.txt is a /metrics scrape of an idle asppserve.
func TestParseMetrics(t *testing.T) {
	b, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseMetrics(string(b))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"aspp_serve_shards":               2,
		"aspp_serve_ring_depth":           4096,
		"aspp_serve_processed_total":      0,
		"aspp_serve_memory_bytes":         657168,
		"aspp_serve_rate_updates_per_sec": 0,
		"aspp_arena_bytes":                904,
	}
	for k, v := range want {
		got, ok := m[k]
		if !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if len(m) != 22 {
		t.Errorf("%d metrics, want 22", len(m))
	}
	if _, err := parseMetrics("aspp_x 1 2\n"); err == nil {
		t.Error("three-field line accepted")
	}
	if _, err := parseMetrics("aspp_x one\n"); err == nil {
		t.Error("non-numeric value accepted")
	}
}
