package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeTailRule(t *testing.T) {
	cases := []struct {
		n        int
		wantP50  float64
		wantTail float64
		wantPct  float64
	}{
		{n: 10, wantP50: 5},                                   // no percentile has ten samples beyond it
		{n: 19, wantP50: 10},                                  // only nine beyond the median
		{n: 20, wantP50: 10, wantTail: 10, wantPct: 50},       // exactly ten beyond the median
		{n: 100, wantP50: 50, wantTail: 90, wantPct: 90},      // p95 would have only five beyond
		{n: 512, wantP50: 256, wantTail: 502, wantPct: 98},    // a random-pairs replay
		{n: 1000, wantP50: 500, wantTail: 990, wantPct: 99},   // p99 needs a thousand samples
		{n: 9999, wantP50: 5000, wantTail: 9900, wantPct: 99}, // p99.9 would have 9.999 beyond
		{n: 10000, wantP50: 5000, wantTail: 9990, wantPct: 99.9},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.P50 != c.wantP50 || d.Tail != c.wantTail || d.TailPct != c.wantPct {
			t.Errorf("n=%d: got %+v, want N=%d P50=%v Tail=%v TailPct=%v",
				c.n, d, c.n, c.wantP50, c.wantTail, c.wantPct)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: got %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}
