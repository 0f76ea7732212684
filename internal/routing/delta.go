package routing

import (
	"errors"

	"aspp/internal/topology"
)

// This file implements the Delta engine: attack propagation as an
// incremental recomputation against a warmed no-attack baseline.
//
// The key observation is that the attacker is the only perturbation to the
// system — every route offer that differs from the baseline traverses the
// attacker (its stripping shortens paths; its optional valley-free
// violation adds exports; both are via-marked). Non-via offers can only
// degrade or disappear relative to the baseline, never improve, so the set
// of ASes whose best route can change is exactly the cone reachable from
// the attacker through the same three phases the Fast engine runs. The
// Delta engine seeds that cone at the attacker's neighbors and walks only
// it, reading everything outside the cone straight from the baseline
// (copy-on-write: the result starts as a byte copy of the baseline and
// only cone members are rewritten).
//
// Per-class baseline candidate tables are recoverable from a Result
// without storing them: the customer-table entry is the baseline route
// exactly when Class == ClassCustomer (a nonempty customer entry always
// wins structurally, so it is never hidden), the peer entry is hidden only
// behind a customer route, and the provider entry behind either. Whenever
// a recomputation could expose a hidden lower-class entry (a customer
// entry emptied, a peer entry changed), the engine forces that entry to be
// recomputed too, so hidden state is materialized exactly where selection
// could fall through to it. The differential suite in engines_test.go pins
// this cone invariant against both other engines.
//
// The engine shares the Scratch's fused nodeRec table with the Fast
// engine for customer and peer entries, and keeps recomputed provider
// entries in the Scratch's dprov side table (nodeRec has no provider
// slot; see its doc): entries in both are only read under a touch bit,
// so they need no reset at all. The dirty/touched bits themselves stay in a packed
// byte array (the phase scans and neighbor probes hammer it, and packed
// it stays L1-resident) that is reset in O(cone) by replaying the
// Scratch's touched list — so setup writes nothing proportional to n.

// Per-AS dirty/touched bits for one delta propagation. A dirty bit queues
// the AS's table entry for recomputation in the matching phase; a touched
// bit records that the entry in the record table is authoritative
// (untouched entries are read from the baseline instead).
const (
	deltaDirtyCust uint8 = 1 << iota
	deltaDirtyPeer
	deltaDirtyProv
	deltaTouchCust
	deltaTouchPeer
	deltaTouchProv
)

// deltaState carries one incremental propagation over a Scratch's record
// table; only entries with the matching touch bit are meaningful.
type deltaState struct {
	g      *topology.Graph
	origin int32
	ann    Announcement
	base   *Result

	atkIdx  int32
	keep    int16
	violate bool

	recs   []nodeRec
	dprov  []cand // recomputed provider entries (no slot in nodeRec)
	flags  []uint8
	reject []bool
	s      *Scratch // owner of flags' touched list
}

// orFlags sets bits on u, registering u on the touched list the first
// time so the flags can be cleared in O(cone) afterwards.
func (st *deltaState) orFlags(u int32, bits uint8) {
	if st.flags[u] == 0 {
		st.s.touched = append(st.s.touched, u)
	}
	st.flags[u] |= bits
}

// baseCust reconstructs u's baseline customer-table entry from the result:
// present exactly when the baseline selection is customer-learned.
func (st *deltaState) baseCust(u int32) cand {
	if st.base.Class[u] != ClassCustomer {
		return cand{len: -1}
	}
	return cand{len: st.base.Len[u], parent: st.base.Parent[u], prep: st.base.Prep[u]}
}

// baseSel reconstructs u's baseline selected route (len -1 if unreachable).
func (st *deltaState) baseSel(u int32) cand {
	if st.base.Class[u] == ClassNone {
		return cand{len: -1}
	}
	return cand{len: st.base.Len[u], parent: st.base.Parent[u], prep: st.base.Prep[u]}
}

// custOf returns u's current customer-table entry: the recomputed value
// when touched, the baseline-derived default otherwise.
func (st *deltaState) custOf(u int32) cand {
	if st.flags[u]&deltaTouchCust != 0 {
		return st.recs[u].cust
	}
	return st.baseCust(u)
}

// peerOf is custOf for the peer table. The baseline peer entry is only
// visible when the baseline selection is peer-learned; a peer entry hidden
// behind a customer route is reconstructed by a forced recomputation
// before anything reads it (see the fall-through marking rules).
func (st *deltaState) peerOf(u int32) cand {
	if st.flags[u]&deltaTouchPeer != 0 {
		return st.recs[u].peer
	}
	if st.base.Class[u] != ClassPeer {
		return cand{len: -1}
	}
	return cand{len: st.base.Len[u], parent: st.base.Parent[u], prep: st.base.Prep[u]}
}

// provOf is custOf for the provider table.
func (st *deltaState) provOf(u int32) cand {
	if st.flags[u]&deltaTouchProv != 0 {
		return st.dprov[u]
	}
	if st.base.Class[u] != ClassProvider {
		return cand{len: -1}
	}
	return cand{len: st.base.Len[u], parent: st.base.Parent[u], prep: st.base.Prep[u]}
}

// selOf returns u's current best route: customer > peer > provider.
func (st *deltaState) selOf(u int32) cand {
	if c := st.custOf(u); c.len >= 0 {
		return c
	}
	if c := st.peerOf(u); c.len >= 0 {
		return c
	}
	return st.provOf(u)
}

// candEq reports whether two table entries are interchangeable, including
// the via flag (a via-only difference must still propagate: it flips loop
// rejection and pollution downstream).
func candEq(a, b cand) bool {
	if a.len < 0 && b.len < 0 {
		return true
	}
	return a.len == b.len && a.parent == b.parent && a.prep == b.prep && a.via == b.via
}

// acceptable applies the receiver-side loop check of fastState.admissible.
func (st *deltaState) acceptable(at int32, c cand) bool {
	if c.len < 0 {
		return false
	}
	return !c.via || (at != st.atkIdx && !st.reject[at])
}

// originSeed is the origin's phase-0 offer toward neighbor nbr.
func (st *deltaState) originSeed(nbr int32) cand {
	asn := st.g.ASNAt(nbr)
	if st.ann.Withhold[asn] {
		return cand{len: -1}
	}
	lam := int32(st.ann.lambdaFor(asn))
	return cand{len: lam, prep: int16(lam), parent: st.origin}
}

// custExport is what u offers in phases 1-2 (its customer-learned route,
// or — for a violating attacker — its best route regardless of class).
// Callers handle u == origin separately via originSeed.
func (st *deltaState) custExport(u int32) cand {
	c := st.custOf(u)
	if st.violate && u == st.atkIdx {
		c = st.selOf(u)
	}
	if c.len < 0 {
		return c
	}
	return exportCand(u, c, st.atkIdx, st.keep)
}

// recomputeCust rebuilds at's customer-table entry from every customer's
// current offer.
func (st *deltaState) recomputeCust(at int32) cand {
	best := cand{len: -1}
	for _, c := range st.g.CustomersIdx(at) {
		var e cand
		if c == st.origin {
			e = st.originSeed(at)
		} else {
			e = st.custExport(c)
		}
		if st.acceptable(at, e) && betterCand(st.g, e, best) {
			best = e
		}
	}
	return best
}

// recomputePeer rebuilds at's peer-table entry from every peer's offer.
func (st *deltaState) recomputePeer(at int32) cand {
	best := cand{len: -1}
	for _, w := range st.g.PeersIdx(at) {
		var e cand
		if w == st.origin {
			e = st.originSeed(at)
		} else {
			e = st.custExport(w)
		}
		if st.acceptable(at, e) && betterCand(st.g, e, best) {
			best = e
		}
	}
	return best
}

// recomputeProv rebuilds at's provider-table entry from every provider's
// phase-3 offer (its overall best route, exported downward).
func (st *deltaState) recomputeProv(at int32) cand {
	best := cand{len: -1}
	for _, p := range st.g.ProvidersIdx(at) {
		var e cand
		if p == st.origin {
			e = st.originSeed(at)
		} else if sel := st.selOf(p); sel.len >= 0 {
			e = exportCand(p, sel, st.atkIdx, st.keep)
		} else {
			continue
		}
		if st.acceptable(at, e) && betterCand(st.g, e, best) {
			best = e
		}
	}
	return best
}

// mark sets a dirty bit; the origin never adopts a route so it stays out
// of the cone.
func (st *deltaState) mark(at int32, bit uint8) {
	if at == st.origin {
		return
	}
	st.orFlags(at, bit)
}

// seed marks the attacker's neighbors dirty. Every offer the attacker
// makes differs from its baseline offer (via-marked, possibly stripped),
// so its whole neighborhood enters the cone; nothing else changes at
// phase 0, so nothing else seeds it.
func (st *deltaState) seed() {
	a := st.atkIdx
	if st.custOf(a).len >= 0 || st.violate {
		for _, p := range st.g.ProvidersIdx(a) {
			st.mark(p, deltaDirtyCust)
		}
		for _, w := range st.g.PeersIdx(a) {
			st.mark(w, deltaDirtyPeer)
		}
	}
	for _, c := range st.g.CustomersIdx(a) {
		st.mark(c, deltaDirtyProv)
	}
}

// run walks the three phases over the dirty cone. Dense AS indices are
// up-topological (a topology.Graph build invariant), so the DAG phases are
// ascending/descending index scans; off-cone indices cost one flag check.
func (st *deltaState) run() {
	g := st.g
	n := int32(len(st.recs))

	// Phase 1 (up): recompute dirty customer entries in topological order,
	// so a dirty customer's entry is final before its providers read it.
	for u := int32(0); u < n; u++ {
		if st.flags[u]&deltaDirtyCust == 0 {
			continue
		}
		old := st.baseCust(u)
		nw := st.recomputeCust(u)
		st.recs[u].cust = nw
		st.orFlags(u, deltaTouchCust)
		if candEq(nw, old) {
			continue
		}
		// u's phase-1/2 offers changed; its selection may change too, and
		// an emptied customer entry can expose a hidden peer entry.
		for _, p := range g.ProvidersIdx(u) {
			st.mark(p, deltaDirtyCust)
		}
		for _, w := range g.PeersIdx(u) {
			st.mark(w, deltaDirtyPeer)
		}
		st.mark(u, deltaDirtyProv)
		if nw.len < 0 {
			st.mark(u, deltaDirtyPeer)
		}
	}

	// Phase 2 (across): recompute dirty peer entries. Order is irrelevant;
	// peer entries depend only on customer entries, which are final.
	for i := int32(0); i < n; i++ {
		if st.flags[i]&deltaDirtyPeer == 0 {
			continue
		}
		var old cand
		if st.base.Class[i] == ClassPeer {
			old = st.baseSel(i)
		} else {
			old.len = -1
		}
		nw := st.recomputePeer(i)
		st.recs[i].peer = nw
		st.orFlags(i, deltaTouchPeer)
		if !candEq(nw, old) {
			st.mark(i, deltaDirtyProv)
		}
	}

	// Phase 3 (down): recompute dirty provider entries in reverse
	// topological order and push selection changes to customers. Every AS
	// whose customer or peer entry changed was marked dirty here, so this
	// pass sees every possible selection change.
	for u := n - 1; u >= 0; u-- {
		if st.flags[u]&deltaDirtyProv == 0 {
			continue
		}
		st.dprov[u] = st.recomputeProv(u)
		st.orFlags(u, deltaTouchProv)
		if candEq(st.selOf(u), st.baseSel(u)) {
			continue
		}
		for _, c := range g.CustomersIdx(u) {
			st.mark(c, deltaDirtyProv)
		}
	}
}

// finish writes the cone's outcomes over a baseline copy in res. Only ASes
// that reached phase 3 can have a changed selection; everything else keeps
// its copied baseline row and Via false. Walking the touched list instead
// of all n records keeps this O(cone).
func (st *deltaState) finish(res *Result) *Result {
	for _, i := range st.s.touched {
		if st.flags[i]&deltaTouchProv == 0 {
			continue
		}
		sel := st.selOf(i)
		if sel.len < 0 {
			res.Class[i] = ClassNone
			res.Len[i] = -1
			res.Prep[i] = 0
			res.Parent[i] = -1
			res.Via[i] = false
			continue
		}
		switch {
		case st.custOf(i).len >= 0:
			res.Class[i] = ClassCustomer
		case st.peerOf(i).len >= 0:
			res.Class[i] = ClassPeer
		default:
			res.Class[i] = ClassProvider
		}
		res.Len[i] = sel.len
		res.Prep[i] = sel.prep
		res.Parent[i] = sel.parent
		res.Via[i] = sel.via
	}
	return res
}

// deltaResultInto resets r to a copy of the baseline on reused storage and
// attaches via (cleared) as its Via slice.
func deltaResultInto(r *Result, baseline *Result, via []bool) *Result {
	n := len(baseline.Class)
	r.g = baseline.g
	r.origin = baseline.origin
	if cap(r.Class) < n {
		c := growCap(n, cap(r.Class))
		r.Class = make([]Class, c)
		r.Len = make([]int32, c)
		r.Prep = make([]int16, c)
		r.Parent = make([]int32, c)
	}
	r.Class = r.Class[:n]
	r.Len = r.Len[:n]
	r.Prep = r.Prep[:n]
	r.Parent = r.Parent[:n]
	copy(r.Class, baseline.Class)
	copy(r.Len, baseline.Len)
	copy(r.Prep, baseline.Prep)
	copy(r.Parent, baseline.Parent)
	r.Via = via[:n]
	for i := range r.Via {
		r.Via[i] = false
	}
	return r
}

// PropagateAttackDelta computes the same stable attack outcome as
// PropagateAttack by incremental recomputation against the no-attack
// baseline, visiting only the cone of ASes the attack can affect. baseline
// must be the no-attack Result for the same graph and announcement (a
// cached one shared read-only across goroutines is fine); nil recomputes
// it into the Scratch's baseline slot. The returned Result is borrowed
// from the Scratch's delta slot — independent of the baseline and attack
// slots, so the usual baseline-then-attack pairing extends to all three.
// Once warmed, the call is allocation-free. Setup copies the baseline
// into the delta slot (one sequential O(n) pass) and clears the dirty
// and rejection tables by replaying the previous call's touched and
// rejection lists (O(previous cone)); the walk itself visits only the
// cone.
// With s == nil a private Scratch is allocated.
func PropagateAttackDelta(g *topology.Graph, ann Announcement, atk Attacker, baseline *Result, s *Scratch) (*Result, error) {
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	if err := atk.Validate(g, ann); err != nil {
		return nil, err
	}
	if g.HasSiblings() {
		return nil, ErrSiblingsNeedReference
	}
	if s == nil {
		ps := scratchPool.Get().(*Scratch)
		res, err := PropagateAttackDelta(g, ann, atk, baseline, ps)
		if err == nil {
			res = res.Clone()
		}
		scratchPool.Put(ps)
		return res, err
	}
	if baseline == nil {
		var err error
		baseline, err = PropagateScratch(g, ann, s)
		if err != nil {
			return nil, err
		}
	} else if baseline.g != g || baseline.Origin() != ann.Origin {
		return nil, errors.New("routing: delta baseline is for a different graph or origin")
	}
	atkIdx, _ := g.Index(atk.AS)
	if baseline.Class[atkIdx] == ClassNone {
		return nil, ErrUnreachableAttacker
	}

	var st deltaState
	st.g = g
	st.origin = baseline.OriginIdx()
	st.ann = ann
	st.base = baseline
	st.atkIdx = atkIdx
	st.keep = atk.keep()
	st.violate = atk.ViolateValleyFree
	// A fresh epoch is opened even though this engine reads candidate
	// entries only under touch bits: it invalidates any Fast-engine
	// leftovers in the shared records, so the two engines can interleave
	// on one Scratch without seeing each other's state.
	n := g.NumASes()
	st.recs, _ = s.beginPropagation(n)
	s.ensureDelta(n)
	st.dprov = s.dprov[:n]
	st.flags = s.dflags[:n]
	st.reject = s.reject[:n]
	st.s = s

	// The delta slot starts as a full copy of the baseline. Repairing only
	// the previous call's cone when the same baseline comes back is slower
	// than this sequential copy once cones are large (tier-1 attackers at
	// 80k ASes), and sweeps run a baseline's legs back to back.
	res := deltaResultInto(&s.delta, baseline, s.deltaVia)
	s.clearDeltaFlags()

	s.clearRejects()
	for j := baseline.Parent[atkIdx]; j != st.origin; j = baseline.Parent[j] {
		s.setReject(j)
	}

	st.seed()
	st.run()
	return st.finish(res), nil
}
