package routing

import (
	"sync"

	"aspp/internal/topology"
)

// nodeRec is one AS's fused candidate state: the customer and peer
// entries plus the epoch stamp that implements O(1) reset. The provider
// entry never lives in the record — the Fast engine's pull-based down
// phase computes it in registers, and the Delta engine keeps its
// recomputed provider entries in a side table (Scratch.dprov) — so the
// record is exactly 32 bytes and two records share every cache line.
//
// The candidate entries are live only while gen equals the owning
// Scratch's epoch; any other value reads as "all empty". Each propagation
// bumps the epoch (Scratch.beginPropagation), which invalidates every
// record at once without writing them.
type nodeRec struct {
	cust, peer cand
	gen        uint32
	_          uint32 // pad to 32 bytes: two records per cache line
}

// Scratch is reusable propagation state for the Fast and Delta engines'
// hot paths. A sweep that runs tens of thousands of Propagate/
// PropagateAttack calls allocates the same candidate tables, rejection
// state and result arrays over and over; borrowing them from a Scratch
// instead makes a warmed-up baseline propagation allocation-free (asserted
// by TestPropagateScratchZeroAlloc).
//
// Ownership contract:
//
//   - A Scratch may be used by ONE goroutine at a time. Sweeps give each
//     worker its own Scratch (see parallel.ForEachScratch) and reuse it
//     across that worker's whole share of the work.
//   - The *Result returned by PropagateScratch is owned by the Scratch's
//     baseline slot: it stays valid until the next PropagateScratch call
//     on the same Scratch. Likewise PropagateAttackScratch's result lives
//     in the attack slot until the next PropagateAttackScratch call, and
//     PropagateAttackDelta's in the delta slot until the next
//     PropagateAttackDelta call. The three slots are independent, so the
//     usual baseline-then-attack pairing — with either attack engine, or
//     both — works on a single Scratch.
//   - Callers that need a result to outlive the Scratch must Clone it.
//
// A Scratch adapts itself to whatever topology it is handed; growing to a
// larger graph reallocates once, after which calls are allocation-free
// again. The zero value is ready to use.
type Scratch struct {
	n int // capacity in ASes the tables are sized for

	// recs is the fused per-AS candidate state; epoch is the current
	// propagation's stamp. Starting a propagation bumps epoch instead of
	// clearing recs, so reset is O(1) (see beginPropagation).
	recs  []nodeRec
	epoch uint32

	// reject marks ASes on the attacker's own path (AS-path loop
	// detection). It stays packed — the engines scan and probe it far more
	// often than they write it — and is reset in O(marks) by replaying
	// rejectList instead of clearing n bytes.
	reject     []bool
	rejectList []int32

	// custSet is the Fast engine's phase-1/2 worklist bitset (one bit per
	// AS with a customer route); peerSet is the same for peer routes.
	// Besides driving the phase-1/2 worklist, the pair lets phase 3 decide
	// each AS's selection class from two bit probes — the bitsets stay
	// L1-resident where the record table does not — and 64 ASes per word
	// keeps their reset cheap.
	custSet []uint64
	peerSet []uint64

	// exps holds each AS's final phase-3 export, written sequentially as
	// the descending scan emits it and read by its (lower-indexed)
	// customers — the Fast engine's pull-based down phase. Entries carry
	// their comparison key precomputed (see expCand) and are only read
	// for ASes the scan has already passed, so the table needs no reset
	// at all.
	exps []expCand

	// dflags holds the Delta engine's per-AS dirty/touched bits, packed
	// for the same reason; touched lists every AS whose flags are nonzero,
	// so reset is O(cone), not O(n).
	dflags  []uint8
	touched []int32

	// dprov holds the Delta engine's recomputed provider entries — the one
	// per-class table that has no slot in nodeRec. Entries are only read
	// under the matching touch bit, so the table needs no reset.
	dprov []cand

	// via is the attack slot's Via storage. viaBase/viaState/viaStack back
	// ViaSetInto walks (core's pollution counting); viaBase is distinct
	// from via so a baseline via-set can coexist with an attack result.
	via      []bool
	viaBase  []bool
	viaState []uint8
	viaStack []int32

	// deltaVia is the delta slot's Via storage.
	deltaVia []bool

	// base, atk and delta are the three reusable result slots.
	base, atk, delta Result
}

// NewScratch returns an empty Scratch; it sizes itself on first use.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool recycles the private Scratches behind the convenience
// entry points (s == nil): a propagation borrows one, runs, clones the
// compact result out, and returns the Scratch — so one-shot callers pay
// a ~n-row copy instead of allocating multi-hundred-KB candidate tables
// per call.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// growCap is the shared geometric growth policy: a table asked to cover
// need entries grows to max(need, 2×cur). Exact-fit growth made a sweep
// that alternates topology sizes (n=1000 → 4000 → 2000 → 4000) reallocate
// on every upward step; doubling bounds the reallocations at O(log max-n)
// for any size sequence (pinned by TestScratchGrowthGeometric) — the
// ROADMAP's 80k-AS prerequisite.
func growCap(need, cur int) int {
	if c := 2 * cur; c > need {
		return c
	}
	return need
}

// grow ensures the core tables — the ones every propagation touches —
// cover n ASes, with geometric over-allocation (see growCap). Fresh
// records carry zero gen stamps, which are stale by construction: the
// epoch is always >= 1 once any propagation has started. The list slices
// get matching capacity so replaying them can never allocate.
//
// The remaining tables are grouped by the call path that needs them and
// allocated lazily by the ensure* methods below, so e.g. a baseline-only
// Scratch never pays for attack Via or delta-cone storage.
func (s *Scratch) grow(n int) {
	if n <= s.n {
		return
	}
	n = growCap(n, s.n)
	s.recs = make([]nodeRec, n)
	s.reject = make([]bool, n)
	s.rejectList = make([]int32, 0, n)
	s.custSet = make([]uint64, (n+63)>>6)
	s.peerSet = make([]uint64, (n+63)>>6)
	s.exps = make([]expCand, n)
	s.n = n
}

// ensureVia sizes the attack slot's Via storage.
func (s *Scratch) ensureVia(n int) {
	if len(s.via) < n {
		s.via = make([]bool, growCap(n, len(s.via)))
	}
}

// ensureViaBufs sizes the ViaSetInto walk buffers.
func (s *Scratch) ensureViaBufs(n int) {
	if len(s.viaBase) < n {
		n = growCap(n, len(s.viaBase))
		s.viaBase = make([]bool, n)
		s.viaState = make([]uint8, n)
	}
	if s.viaStack == nil {
		s.viaStack = make([]int32, 0, 64)
	}
}

// ensureDelta sizes the Delta engine's flag table and Via storage. When it
// reallocates, the fresh dflags are all-zero, so the (discarded) touched
// list has nothing left to undo.
func (s *Scratch) ensureDelta(n int) {
	if len(s.dflags) < n {
		n = growCap(n, len(s.dflags))
		s.dflags = make([]uint8, n)
		s.touched = make([]int32, 0, n)
		s.deltaVia = make([]bool, n)
		s.dprov = make([]cand, n)
	}
}

// beginPropagation sizes the tables for n ASes and opens a fresh epoch,
// returning the record window and its stamp. Bumping the epoch invalidates
// every candidate entry from prior propagations in O(1) — no memory is
// written. On uint32 wraparound (once per ~4.3 billion propagations) stale
// stamps could alias the new epoch, so every stamp is hard-cleared and the
// epoch restarts at 1.
func (s *Scratch) beginPropagation(n int) ([]nodeRec, uint32) {
	s.grow(n)
	s.epoch++
	if s.epoch == 0 {
		for i := range s.recs {
			s.recs[i].gen = 0
		}
		s.epoch = 1
	}
	return s.recs[:n], s.epoch
}

// clearRejects undoes the previous attack's loop-rejection marks by
// replaying the mark list — O(path length), not O(n).
func (s *Scratch) clearRejects() {
	for _, i := range s.rejectList {
		s.reject[i] = false
	}
	s.rejectList = s.rejectList[:0]
}

// setReject marks AS index i as loop-rejecting via-routes.
func (s *Scratch) setReject(i int32) {
	if !s.reject[i] {
		s.reject[i] = true
		s.rejectList = append(s.rejectList, i)
	}
}

// clearDeltaFlags undoes the previous delta propagation's dirty/touched
// bits by replaying the touched list — O(cone), not O(n).
func (s *Scratch) clearDeltaFlags() {
	for _, i := range s.touched {
		s.dflags[i] = 0
	}
	s.touched = s.touched[:0]
}

// ViaBuffers exposes the scratch-owned buffers ViaSetInto needs, sized for
// g. The buffers are distinct from the attack slot's Via storage, so a
// baseline via-set computed here stays valid next to an attack result on
// the same Scratch. The returned slices are invalidated by the next
// ViaBuffers call on this Scratch.
func (s *Scratch) ViaBuffers(g *topology.Graph) (via []bool, state []uint8, stack []int32) {
	n := g.NumASes()
	s.ensureViaBufs(n)
	return s.viaBase[:n], s.viaState[:n], s.viaStack
}

// PropagateScratch is Propagate with scratch reuse: candidate tables and
// the returned Result are borrowed from s. With s == nil the propagation
// runs on a pooled Scratch and the returned Result is a private copy. See
// the Scratch ownership contract.
func PropagateScratch(g *topology.Graph, ann Announcement, s *Scratch) (*Result, error) {
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		res, err := PropagateScratch(g, ann, ps)
		if err == nil {
			res = res.Clone()
		}
		scratchPool.Put(ps)
		return res, err
	}
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	if g.HasSiblings() {
		return nil, ErrSiblingsNeedReference
	}
	var st fastState
	st.init(g, ann, s)
	return st.run(resultInto(&s.base, g, st.origin), nil), nil
}

// PropagateAttackScratch is PropagateAttack with scratch reuse. baseline
// may be a cached no-attack Result for the same announcement (shared
// read-only across goroutines is safe); nil recomputes it into the
// Scratch's baseline slot. The returned Result is borrowed from the
// Scratch's attack slot. With s == nil the propagation runs on a pooled
// Scratch and the returned Result is a private copy.
func PropagateAttackScratch(g *topology.Graph, ann Announcement, atk Attacker, baseline *Result, s *Scratch) (*Result, error) {
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		res, err := PropagateAttackScratch(g, ann, atk, baseline, ps)
		if err == nil {
			res = res.Clone()
		}
		scratchPool.Put(ps)
		return res, err
	}
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	if err := atk.Validate(g, ann); err != nil {
		return nil, err
	}
	if baseline == nil {
		var err error
		baseline, err = PropagateScratch(g, ann, s)
		if err != nil {
			return nil, err
		}
	}
	atkIdx, _ := g.Index(atk.AS)
	if baseline.Class[atkIdx] == ClassNone {
		return nil, ErrUnreachableAttacker
	}

	var st fastState
	st.init(g, ann, s)
	st.atkIdx = atkIdx
	st.keep = atk.keep()
	st.violate = atk.ViolateValleyFree

	// Loop rejection: every route that traverses the attacker carries the
	// attacker's full (baseline) path as its suffix, so exactly the ASes on
	// that path must reject it, as real BGP loop detection would.
	s.clearRejects()
	for j := baseline.Parent[atkIdx]; j != st.origin; j = baseline.Parent[j] {
		s.setReject(j)
	}

	if st.violate {
		st.seedViolation(baseline)
	}

	s.ensureVia(g.NumASes())
	res := resultInto(&s.atk, g, st.origin)
	res.Via = s.via[:g.NumASes()]
	return st.run(res, res.Via), nil
}
