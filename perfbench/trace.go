package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer of the program. Parent is the index of the enclosing span (-1
// for a root); spans of one traced run share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code paths at the cost of one
// nil check per span.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.now()
}

// add records an already-measured interval, for events observed from
// outside the benchmark process (a child's streamed output lines).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: parent, Run: t.run,
	})
	return len(t.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curLo, curHi, open = iv[0], iv[1], true
			case iv[0] <= curHi:
				curHi = max(curHi, iv[1])
			default:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time by span name, in seconds.
func layerSelf(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, st := range selfTimes(spans) {
		out[spans[i].Name] += float64(st) / 1e9
	}
	return out
}

// traceTolerance is the largest share of a traced run's wall time by which
// the self times of its layer spans may miss it. Every blocking step of a
// run is wrapped in a span, one after another, so only loop bookkeeping
// between spans is left out; a negative miss means spans overlap, which
// steps on one blocking path cannot.
const traceTolerance = 0.05

// consistency checks that the self times of the spans under root add up
// to root's wall time within traceTolerance. It returns the share of the
// wall time they leave unattributed and whether it is within tolerance.
func consistency(spans []span, root int) (unattributed float64, ok bool) {
	self := selfTimes(spans)
	var attributed int64
	for i := range spans {
		if i != root && under(spans, i, root) {
			attributed += self[i]
		}
	}
	wall := spans[root].dur()
	if wall <= 0 {
		return 1, false
	}
	unattributed = float64(wall-attributed) / float64(wall)
	return unattributed, math.Abs(unattributed) <= traceTolerance
}

// under reports whether span i descends from span root.
func under(spans []span, i, root int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// write saves the spans as JSON under dir, named after the run.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.run+".json"), b, 0o644)
}
