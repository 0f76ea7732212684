package routing

import (
	"testing"
	"unsafe"
)

// TestMemoryBytesNilAndZero: nil receivers report zero; zero values
// report only their fixed struct size (no backing yet).
func TestMemoryBytesNilAndZero(t *testing.T) {
	var (
		nilR *Result
		nilS *Scratch
		nilB *BatchScratch
		nilA *PathArena
	)
	if nilR.MemoryBytes() != 0 || nilS.MemoryBytes() != 0 ||
		nilB.MemoryBytes() != 0 || nilA.MemoryBytes() != 0 {
		t.Fatal("nil receivers must report 0 bytes")
	}
	if got, want := NewScratch().MemoryBytes(), int64(unsafe.Sizeof(Scratch{})); got != want {
		t.Fatalf("zero Scratch = %d bytes, want struct size %d", got, want)
	}
	if got, want := NewBatchScratch().MemoryBytes(), int64(unsafe.Sizeof(BatchScratch{})); got != want {
		t.Fatalf("zero BatchScratch = %d bytes, want struct size %d", got, want)
	}
}

// TestResultMemoryBytes pins the cached-baseline accounting: a cloned
// baseline's footprint is at least the BaselineResultBytes floor (exact
// columns, no Via) and within the allocator's size-class rounding of it.
func TestResultMemoryBytes(t *testing.T) {
	g := testGraph(t)
	n := g.NumASes()
	base := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 1}).Clone()
	if base.Via != nil {
		t.Fatal("baseline clone unexpectedly carries a Via column")
	}
	got := base.MemoryBytes()
	floor := BaselineResultBytes(n)
	if got < floor {
		t.Fatalf("clone MemoryBytes=%d below floor %d", got, floor)
	}
	if got > 2*floor {
		t.Fatalf("clone MemoryBytes=%d more than 2x floor %d — accounting broken", got, floor)
	}
	// The accounting is capacity-exact for the actual columns.
	want := int64(unsafe.Sizeof(Result{})) +
		int64(cap(base.Class))*1 + int64(cap(base.Len))*4 +
		int64(cap(base.Prep))*2 + int64(cap(base.Parent))*4
	if got != want {
		t.Fatalf("clone MemoryBytes=%d, want capacity sum %d", got, want)
	}
}

// TestScratchMemoryBytesGrowth: propagating sizes the tables, and the
// reported footprint covers at least the dominant per-AS record table.
func TestScratchMemoryBytesGrowth(t *testing.T) {
	g := testGraph(t)
	s := NewScratch()
	empty := s.MemoryBytes()
	if _, err := PropagateScratch(g, Announcement{Origin: 100, Prepend: 1}, s); err != nil {
		t.Fatalf("PropagateScratch: %v", err)
	}
	grown := s.MemoryBytes()
	if grown <= empty {
		t.Fatalf("MemoryBytes did not grow after propagation: %d -> %d", empty, grown)
	}
	if min := int64(g.NumASes()) * int64(unsafe.Sizeof(nodeRec{})); grown < min {
		t.Fatalf("MemoryBytes=%d below record-table floor %d", grown, min)
	}
	// Accounting must be read-only: a second call reports the same value.
	if again := s.MemoryBytes(); again != grown {
		t.Fatalf("MemoryBytes not stable: %d then %d", grown, again)
	}
}

// TestBatchScratchMemoryBytesGrowth: the lane tables dominate and scale
// with the stride, so widening lanes must grow the reported footprint.
func TestBatchScratchMemoryBytesGrowth(t *testing.T) {
	g := testGraph(t)
	bs := NewBatchScratch()
	anns := func(k int) []Announcement {
		out := make([]Announcement, k)
		for i := range out {
			out[i] = Announcement{Origin: 100, Prepend: 1}
		}
		return out
	}
	if _, err := PropagateBatch(g, anns(2), bs); err != nil {
		t.Fatalf("PropagateBatch k=2: %v", err)
	}
	narrow := bs.MemoryBytes()
	if _, err := PropagateBatch(g, anns(16), bs); err != nil {
		t.Fatalf("PropagateBatch k=16: %v", err)
	}
	wide := bs.MemoryBytes()
	if wide <= narrow {
		t.Fatalf("footprint did not grow with lane width: k=2 %d, k=16 %d", narrow, wide)
	}
}

func TestPathArenaMemoryBytes(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	a := NewPathArena()
	empty := a.MemoryBytes()
	monitors := make([]int32, g.NumASes())
	for i := range monitors {
		monitors[i] = int32(i)
	}
	res.PathsInto(a, monitors, make([]PathSpan, 0, len(monitors)))
	filled := a.MemoryBytes()
	if filled <= empty {
		t.Fatalf("arena footprint did not grow: %d -> %d", empty, filled)
	}
}
