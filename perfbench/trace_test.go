package main

import (
	"math"
	"testing"
)

// fixture: a 100 ns root with two overlapping children (10-40, 30-60), a
// grandchild inside the first (15-25), a child running past the root's
// end (90-120), and a second root.
var fixtureSpans = []span{
	{Name: "root", Start: 0, End: 100, Parent: -1},
	{Name: "a", Start: 10, End: 40, Parent: 0},
	{Name: "b", Start: 30, End: 60, Parent: 0},
	{Name: "a1", Start: 15, End: 25, Parent: 1},
	{Name: "late", Start: 90, End: 120, Parent: 0},
	{Name: "other", Start: 0, End: 50, Parent: -1},
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(fixtureSpans)
	// root covers 10-60 (overlap counted once) and 90-100: 60 of 100.
	want := []int64{40, 20, 30, 10, 30, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", fixtureSpans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerSelfSumsByName(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 4e9, Parent: -1},
		{Name: "call", Start: 0, End: 1e9, Parent: 0},
		{Name: "call", Start: 2e9, End: 3e9, Parent: 0},
	}
	got := layerSelf(spans)
	if got["call"] != 2 || got["run"] != 2 {
		t.Errorf("got %v, want call=2s run=2s", got)
	}
}

func TestConsistency(t *testing.T) {
	// The descendants' self times add up to 20+30+10+30 = 90 against a
	// 100 ns wall: 10% unattributed, beyond the tolerance. (The gaps
	// 0-10 and 60-90 are partly offset by the a/b overlap and by "late"
	// running past the root; neither lies on one blocking path.)
	share, ok := consistency(fixtureSpans, 0)
	if math.Abs(share-0.10) > 1e-12 || ok {
		t.Errorf("got share %v ok %v, want 0.10 beyond the %.2f tolerance", share, ok, traceTolerance)
	}
	tight := []span{
		{Name: "run", Start: 0, End: 1000, Parent: -1},
		{Name: "x", Start: 0, End: 600, Parent: 0},
		{Name: "y", Start: 610, End: 1000, Parent: 0},
	}
	share, ok = consistency(tight, 0)
	if math.Abs(share-0.01) > 1e-12 || !ok {
		t.Errorf("got share %v ok %v, want 0.01 within tolerance", share, ok)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", -1)
	tr.end(i)
	if i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
}
