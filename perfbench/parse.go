package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// streamLine is one line of a child's standard output with the time the
// benchmark read it.
type streamLine struct {
	At   time.Time
	Text string
}

// readLines reads r line by line, stamping each line as it arrives.
func readLines(r io.Reader) ([]streamLine, error) {
	var out []streamLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		out = append(out, streamLine{At: time.Now(), Text: sc.Text()})
	}
	return out, sc.Err()
}

// experimentRun is one "### <name>" section of asppbench output.
type experimentRun struct {
	Name     string
	Start    time.Time // when the header arrived
	End      time.Time // when the next header arrived, or the stream ended
	Body     []string  // data lines, counters excluded
	Counters map[string]int64
}

const countersPrefix = "# counters: "

// parseExperiments splits an asppbench output stream into its experiment
// sections. end is the time the stream closed. Lines before the first
// header are an error: asppbench prints nothing before it.
func parseExperiments(lines []streamLine, end time.Time) ([]experimentRun, error) {
	var out []experimentRun
	for _, l := range lines {
		if name, ok := strings.CutPrefix(l.Text, "### "); ok {
			if n := len(out); n > 0 {
				out[n-1].End = l.At
			}
			out = append(out, experimentRun{Name: name, Start: l.At})
			continue
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("output before the first experiment header: %q", l.Text)
		}
		cur := &out[len(out)-1]
		if kv, ok := strings.CutPrefix(l.Text, countersPrefix); ok {
			c, err := parseCounters(kv)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cur.Name, err)
			}
			cur.Counters = c
			continue
		}
		cur.Body = append(cur.Body, l.Text)
	}
	if n := len(out); n > 0 {
		out[n-1].End = end
	}
	return out, nil
}

// parseCounters parses a "k=v k=v" counters line.
func parseCounters(s string) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("counters: field %q is not key=value", f)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("counters: %s: %w", k, err)
		}
		out[k] = n
	}
	return out, nil
}

// parseMetrics parses the daemon's /metrics text: one "name value" pair
// per line. Blank lines and '#' comments are skipped.
func parseMetrics(s string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", f[0], err)
		}
		out[f[0]] = v
	}
	return out, nil
}
