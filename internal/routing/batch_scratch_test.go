package routing

import (
	"fmt"
	"testing"

	"aspp/internal/topology"
)

var allocSinkBatch *BatchResult

// uniformBatch builds k uniform announcements over spread-out origins
// with λ cycling 1..8.
func uniformBatch(g *topology.Graph, k int) []Announcement {
	asns := g.ASNs()
	anns := make([]Announcement, k)
	for i := range anns {
		anns[i] = Announcement{Origin: asns[(i*131)%len(asns)], Prepend: 1 + i%8}
	}
	return anns
}

// TestPropagateBatchZeroAlloc pins the warmed zero-alloc contract at both
// required lane widths: once a BatchScratch has run a batch on a graph,
// repeated batches within capacity must not touch the heap.
func TestPropagateBatchZeroAlloc(t *testing.T) {
	cfg := topology.DefaultGenConfig(4000)
	cfg.Seed = 17
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anns := uniformBatch(g, batchMaxLanes)
	bs := NewBatchScratch()
	if _, err := PropagateBatch(g, anns, bs); err != nil { // warm every table once
		t.Fatal(err)
	}
	for _, k := range []int{8, 64} {
		lanes := anns[:k]
		if avg := testing.AllocsPerRun(5, func() {
			allocSinkBatch, allocSinkErr = PropagateBatch(g, lanes, bs)
		}); avg != 0 {
			t.Errorf("warmed PropagateBatch K=%d allocates %.1f objects per run, want 0", k, avg)
		}
		if allocSinkErr != nil {
			t.Fatal(allocSinkErr)
		}
	}
}

// TestBatchEpochWrapHardClear forces the uint32 epoch wraparound on the
// lane records: stamps from pre-wrap chunks could alias the restarted
// epoch, so beginChunk must hard-clear them rather than let a pre-wrap
// lane mask read as live.
func TestBatchEpochWrapHardClear(t *testing.T) {
	g := batchTestGraph(t, 300, 41)
	bs := NewBatchScratch()
	bs.epoch = ^uint32(0) - 3 // four chunks from wrapping
	serial := NewScratch()
	t1 := g.Tier1s()
	for step := 0; step < 8; step++ {
		anns := []Announcement{
			{Origin: t1[step%len(t1)], Prepend: 1 + step%5},
			{Origin: t1[(step+1)%len(t1)], Prepend: 1 + (step+2)%8},
			{Origin: g.ASNs()[(step*37)%g.NumASes()], Prepend: 1 + step%8},
		}
		br, err := PropagateBatch(g, anns, bs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for l := range anns {
			want, err := PropagateScratch(g, anns[l], serial)
			if err != nil {
				t.Fatalf("step %d lane %d: %v", step, l, err)
			}
			compareResults(t, g, br.Lanes[l], want, fmt.Sprintf("wrap step %d lane %d", step, l))
			if t.Failed() {
				t.Fatalf("step %d: epoch wrap leaked stale lane state", step)
			}
		}
		if bs.epoch == 0 {
			t.Fatalf("step %d: epoch left at 0 (every lane record would read live)", step)
		}
	}
	if bs.epoch >= ^uint32(0)-3 {
		t.Fatal("epoch never wrapped; the test exercised nothing")
	}
}

// TestBatchShrinkRegrow reuses one BatchScratch across graph sizes and
// lane widths: shrinking to a smaller graph leaves high-index lane records
// stamped by the big graph, and regrowing the lane stride reallocates the
// lane-major tables mid-sequence — in both cases stale state must read as
// empty when the old indices come back into range.
func TestBatchShrinkRegrow(t *testing.T) {
	big := batchTestGraph(t, 500, 29)
	small := batchTestGraph(t, 120, 7)
	bs := NewBatchScratch()
	serial := NewScratch()
	check := func(g *topology.Graph, k int, label string) {
		t.Helper()
		anns := uniformBatch(g, k)
		br, err := PropagateBatch(g, anns, bs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for l := range anns {
			want, err := PropagateScratch(g, anns[l], serial)
			if err != nil {
				t.Fatalf("%s lane %d: %v", label, l, err)
			}
			compareResults(t, g, br.Lanes[l], want, fmt.Sprintf("%s lane %d", label, l))
			if t.Failed() {
				t.Fatalf("%s: stale lane state leaked", label)
			}
		}
	}
	check(big, 8, "big K=8 warmup")
	check(small, 8, "shrunk graph")
	check(big, 8, "regrown graph")
	check(big, 64, "stride regrow K=64") // reallocates the lane tables
	check(small, 17, "shrunk again, mid stride")
	check(big, 64, "regrown at full width")
}

// TestScratchGrowthGeometric pins the growth policy on every scratch
// type: capacity grows to max(need, 2×cap), so a monotone ladder of sizes
// reallocates O(log) times, and a request within the doubled capacity
// reallocates nothing.
func TestScratchGrowthGeometric(t *testing.T) {
	s := NewScratch()
	s.grow(1000)
	if s.n != 1000 {
		t.Fatalf("first grow(1000): capacity %d, want exactly 1000", s.n)
	}
	s.grow(1500)
	if s.n != 2000 {
		t.Fatalf("grow(1500) after 1000: capacity %d, want doubled 2000", s.n)
	}
	p := &s.recs[0]
	s.grow(2000) // within the doubled capacity: must not reallocate
	if &s.recs[0] != p {
		t.Fatal("grow(2000) within capacity 2000 reallocated the record table")
	}
	s.grow(5000) // above double: grows to the need
	if s.n != 5000 {
		t.Fatalf("grow(5000) after 2000: capacity %d, want 5000", s.n)
	}

	bs := NewBatchScratch()
	bs.grow(1000, 8)
	if bs.n != 1000 || bs.k != 8 {
		t.Fatalf("first grow(1000, 8): capacity (%d, %d), want (1000, 8)", bs.n, bs.k)
	}
	bs.grow(1500, 8)
	if bs.n != 2000 || bs.k != 8 {
		t.Fatalf("grow(1500, 8): capacity (%d, %d), want (2000, 8)", bs.n, bs.k)
	}
	bs.grow(1800, 12)
	if bs.n != 2000 || bs.k != 16 {
		t.Fatalf("grow(1800, 12): capacity (%d, %d), want (2000, 16)", bs.n, bs.k)
	}
	lp := &bs.lanes[0]
	bs.grow(2000, 16) // both within capacity
	if &bs.lanes[0] != lp {
		t.Fatal("grow within capacity reallocated the lane tables")
	}
	bs.grow(100, 40) // need above double (32): grows to the need
	if bs.n != 2000 || bs.k != 40 {
		t.Fatalf("grow(100, 40): capacity (%d, %d), want (2000, 40)", bs.n, bs.k)
	}
	bs.grow(100, 41) // doubling (80) is capped at batchMaxLanes
	if bs.n != 2000 || bs.k != batchMaxLanes {
		t.Fatalf("grow(100, 41): capacity (%d, %d), want (2000, %d)", bs.n, bs.k, batchMaxLanes)
	}
}

// TestScratchNoReallocAcrossTopologySequence is the end-to-end growth
// regression: after warming on the largest graph, propagations across an
// n=1000 → 4000 → 2000 → 4000 topology sequence must never reallocate —
// for the serial Scratch, its result slots, and the BatchScratch alike.
func TestScratchNoReallocAcrossTopologySequence(t *testing.T) {
	graphs := make([]*topology.Graph, 0, 3)
	for i, n := range []int{1000, 4000, 2000} {
		cfg := topology.DefaultGenConfig(n)
		cfg.Seed = int64(3 + 2*i)
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	g1000, g4000, g2000 := graphs[0], graphs[1], graphs[2]
	sequence := []*topology.Graph{g1000, g4000, g2000, g4000}

	s := NewScratch()
	for _, g := range sequence { // warm: growth steps may allocate
		if _, err := PropagateScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, s); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(3, func() {
		for _, g := range sequence {
			allocSinkResult, allocSinkErr = PropagateScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, s)
		}
	}); avg != 0 {
		t.Errorf("warmed Scratch allocates %.1f objects across the size sequence, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}

	bs := NewBatchScratch()
	for _, g := range sequence {
		if _, err := PropagateBatch(g, uniformBatch(g, 8), bs); err != nil {
			t.Fatal(err)
		}
	}
	batches := make([][]Announcement, len(sequence))
	for i, g := range sequence {
		batches[i] = uniformBatch(g, 8)
	}
	if avg := testing.AllocsPerRun(3, func() {
		for i, g := range sequence {
			allocSinkBatch, allocSinkErr = PropagateBatch(g, batches[i], bs)
		}
	}); avg != 0 {
		t.Errorf("warmed BatchScratch allocates %.1f objects across the size sequence, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}
}

// TestAdaptiveLaneWidth pins the survey's lane-width policy: saturate at
// 64 lanes on small graphs, narrow monotonically as n grows, never leave
// [1, 64].
func TestAdaptiveLaneWidth(t *testing.T) {
	if got := AdaptiveLaneWidth(4000); got != batchMaxLanes {
		t.Errorf("AdaptiveLaneWidth(4000) = %d, want %d", got, batchMaxLanes)
	}
	if got := AdaptiveLaneWidth(0); got != batchMaxLanes {
		t.Errorf("AdaptiveLaneWidth(0) = %d, want %d", got, batchMaxLanes)
	}
	prev := batchMaxLanes + 1
	for _, n := range []int{100, 4000, 20000, 80000, 1 << 22} {
		k := AdaptiveLaneWidth(n)
		if k < 1 || k > batchMaxLanes {
			t.Fatalf("AdaptiveLaneWidth(%d) = %d out of [1,%d]", n, k, batchMaxLanes)
		}
		if k > prev {
			t.Fatalf("AdaptiveLaneWidth not monotone: n=%d → %d after %d", n, k, prev)
		}
		prev = k
	}
	if got := AdaptiveLaneWidth(80000); got != 3 {
		t.Errorf("AdaptiveLaneWidth(80000) = %d, want 3", got)
	}
}
