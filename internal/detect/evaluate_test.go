package detect

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestVerdictPrefixDifferential: the sweep path — Load a monitor ranking
// once per impact, then Verdict each prefix under each relationship
// source — returns, for every prefix, the frozen legacy verdict for that
// prefix as the whole monitor set, minus the alarm list. Loads of an
// unrelated monitor list are interleaved, so the per-impact hop table is
// reused across lists, and a kept EvaluateScratch result checks that
// Verdict's reused alarm buffer never aliases a returned Alarms slice.
func TestVerdictPrefixDifferential(t *testing.T) {
	g := diffTestGraph(t, 500, 11)
	ranking := g.TopByDegree(60)
	other := g.ASNs()
	rand.New(rand.NewSource(3)).Shuffle(len(other), func(i, j int) { other[i], other[j] = other[j], other[i] })
	other = other[:40]
	impacts := diffScenarios(t, g, 2)
	if len(impacts) < 50 {
		t.Fatalf("only %d usable scenarios", len(impacts))
	}

	rankSet, otherSet := NewMonitorSet(g, ranking), NewMonitorSet(g, other)
	sc := NewEvalScratch()
	prefixes := []int{0, 1, 7, 30, 60}
	verdicts, alarmed := 0, 0
	for si, im := range impacts {
		kept := EvaluateScratch(im, ranking, g, sc)
		for _, rels := range []RelQuerier{g, nil} {
			sc.Load(im, rankSet)
			for _, d := range prefixes {
				got := sc.Verdict(d, rels)
				want := legacyEvaluate(im, ranking[:d], rels)
				if len(want.Alarms) > 0 {
					alarmed++
				}
				want.Alarms = nil
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("scenario %d (%v) prefix %d rels %T:\nverdict %+v\nlegacy  %+v", si, im.Scenario, d, rels, got, want)
				}
				verdicts++
			}
			sc.Load(im, otherSet)
			got := sc.Verdict(len(other), rels)
			want := legacyEvaluate(im, other, rels)
			want.Alarms = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scenario %d (%v) other list rels %T:\nverdict %+v\nlegacy  %+v", si, im.Scenario, rels, got, want)
			}
		}
		if want := legacyEvaluate(im, ranking, g); !reflect.DeepEqual(kept, want) {
			t.Fatalf("scenario %d (%v): EvaluateScratch result changed by later Verdicts:\nkept   %+v\nlegacy %+v", si, im.Scenario, kept, want)
		}
	}
	if alarmed == 0 {
		t.Fatal("no verdict raised an alarm; the differential checks nothing")
	}
	t.Logf("%d prefix verdicts over %d scenarios, %d with alarms", verdicts, len(impacts), alarmed)
}
