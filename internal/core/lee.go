package core

import (
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
)

// This file implements the generalized Lee's algorithm of Section 8.2
// with all three modifications:
//
//  1. the neighbors of a via are the via sites reachable from it by a
//     single-layer trace (found with sla.Vias), so neighbors radiate in a
//     cross from the point (Figure 11);
//  2. wavefronts spread from both ends simultaneously and a connection is
//     blocked as soon as either wavefront exhausts;
//  3. wavefronts are priority queues under a selectable cost function,
//     trading the minimum-via guarantee for search speed.
//
// The search state (marks, heaps, ban set, goal table) lives in the
// Router's searchScratch (scratch.go) and is reset generationally, so a
// steady-state search allocates nothing per expanded node.

// leeMark records how a via site was reached.
type leeMark struct {
	from  geom.Point // predecessor via (the expansion point)
	layer int8       // layer of the single-layer hop from→here
	hops  int32      // vias between here and the wavefront's source
	side  uint8      // 0 = a's wavefront, 1 = b's wavefront
}

// leeItem is one priority-queue entry. Sequence numbers break cost ties
// deterministically in insertion order, matching the paper's list
// behaviour for equal costs.
type leeItem struct {
	cost int64
	seq  int
	p    geom.Point
}

// hop is one single-layer link of a retraced path.
type hop struct {
	u, v  geom.Point
	layer int
}

// banSet holds hops that met during a search but could not be retraced
// (drilling the chain's own vias can split the free interval the Vias
// call saw). Banned hops are skipped on the retry searches.
type banSet map[hop]struct{}

// abortStride is how many Lee expansions may pass between abort
// checkpoints. Coarse enough that the time.Now/atomic-load cost vanishes
// against the expansion work, fine enough that a budget or cancellation
// lands within a few hundred nodes. Must be a power of two.
const abortStride = 256

// searchAborted is the per-expansion checkpoint: free when no budget or
// context is armed, one modulo plus the latched-flag test otherwise, and
// a full clock/cancellation check every abortStride expansions. It also
// charges the expansion against the connection's node budget.
func (r *Router) searchAborted() bool {
	if cap := r.Opts.NodeBudget; cap > 0 && r.metrics.LeeExpansions-r.connExpBase >= cap {
		r.nodeBudgetHit = true
		return true
	}
	if !r.abortArmed {
		return false
	}
	if r.abortReason != AbortNone {
		return true
	}
	return r.metrics.LeeExpansions&(abortStride-1) == 0 && r.abortCheck()
}

// leeSearch carries the state of one bidirectional search. The heavy
// stores are reached through sc; leeSearch itself is embedded in the
// scratch and reset in place per search.
type leeSearch struct {
	r       *Router
	sc      *searchScratch
	sources [2]geom.Point
	banned  banSet
	// best remembers the least-cost point ever inserted into each
	// wavefront; when a wavefront exhausts, its best point made the most
	// progress toward the target and becomes the rip-up center
	// (Section 8.3).
	best     [2]geom.Point
	bestCost [2]int64
	hasBest  [2]bool
	seq      int
	costCap  int64 // abandon threshold; 0 = unlimited

	// Goal-oriented mode (Options.Engine == EngineGoal): the wavefront
	// is ordered by accumulated path cost plus the admissible lower
	// bound of lowerbound.go. The per-point accumulated costs reuse the
	// scratch's delay slots (zeroed by setMark, so sources read 0).
	goal   bool
	viaPen int64

	// Delay-targeting mode for the rejected cost-function tuner
	// (tunedlee.go). The per-point path delays live in the scratch's
	// mark store, in fixed-point picoseconds.
	tuned    bool
	uni      bool // force a single wavefront regardless of router options
	targetFs int64
	cellFs   []int64
	fastFs   int64
	bridge   hop // set by chainThrough on a meet
}

// neighborBox returns the box passed to sla.Vias when expanding p on a
// layer of orientation o: the full board along the layer's preferred
// direction, radius via units across it (the cross of Figure 11).
func (r *Router) neighborBox(p geom.Point, o grid.Orientation) geom.Rect {
	d := r.Opts.Radius * r.B.Cfg.Pitch
	var box geom.Rect
	if o == grid.Horizontal {
		box = geom.R(0, p.Y-d, r.B.Cfg.Width-1, p.Y+d)
	} else {
		box = geom.R(p.X-d, 0, p.X+d, r.B.Cfg.Height-1)
	}
	return box.Intersect(r.B.Cfg.Bounds())
}

// cost evaluates the configured cost function for a neighbor n at the
// given hop count, aiming at target.
func (r *Router) cost(n, target geom.Point, hops int32) int64 {
	switch r.Opts.Cost {
	case CostPlusOne:
		return int64(hops)
	case CostDistance:
		return int64(n.ManhattanDist(target))
	default:
		return int64(n.ManhattanDist(target)) * int64(hops)
	}
}

// lee runs the generalized Lee search for connection i. On success it
// returns the materialized route. On failure it returns the point around
// which obstructions should be ripped up. A search whose retrace fails is
// retried with the offending hop banned, up to a small limit; the
// blockage in that case is the chain's own geometry, which ripping up
// other connections cannot cure.
func (r *Router) lee(i int) (Route, geom.Point, bool) {
	c := &r.Conns[i]
	return r.leePts(c.A, c.B, r.connID(i))
}

// leePts is lee for arbitrary endpoints. It is also the Lee phase's
// timing seam: with a registry armed it brackets the whole
// search-and-retrace in two clock reads (obs.go); without one it is a
// direct call, so unbudgeted runs stay untouched. Either way it adds no
// allocations to the flood (TestLeeSteadyStateAllocs covers both).
func (r *Router) leePts(a, b geom.Point, id layer.ConnID) (Route, geom.Point, bool) {
	if r.obs == nil {
		return r.leeRun(a, b, id)
	}
	defer r.obsPhase(phaseLee, time.Now())
	return r.leeRun(a, b, id)
}

// leeRun is the retrace-retry loop around leeOnce.
func (r *Router) leeRun(a, b geom.Point, id layer.ConnID) (Route, geom.Point, bool) {
	banned := r.scratch.banned
	clear(banned)
	const maxRetraceRetries = 6
	for try := 0; ; try++ {
		rt, failed, victim, ok := r.leeOnce(a, b, id, banned)
		if ok {
			return rt, geom.Point{}, true
		}
		if failed == nil || try >= maxRetraceRetries {
			return Route{}, victim, false
		}
		banned[*failed] = struct{}{}
	}
}

// leeOnce runs a single bidirectional search. Return values: the route on
// success; the hop whose retrace failed (nil if the search itself was
// blocked); the rip-up victim point; success.
func (r *Router) leeOnce(a, b geom.Point, id layer.ConnID, banned banSet) (Route, *hop, geom.Point, bool) {
	s := r.scratch.beginSearch(r, a, b)
	s.banned = banned
	if r.Opts.Engine == EngineGoal {
		s.goal = true
		s.viaPen = r.goalViaPen()
	}
	if f := int64(r.Opts.CostCapFactor); f > 0 {
		d0 := int64(a.ManhattanDist(b))
		if r.Opts.Cost == CostPlusOne && !s.goal {
			// Hop counts, not distances: cap the path length in vias.
			d0 = 4
		}
		// The cap formula is shared with the goal engine deliberately:
		// goal estimates dominate classic ones pointwise (the via term
		// only adds), so under the same cap a provably-blocked flood is
		// abandoned no later — and usually much sooner — than classic
		// would abandon it.
		s.costCap = f * (d0 + 8*int64(r.B.Cfg.Pitch))
	}

	// Seed both wavefronts (Figures 12 and 13). In unidirectional mode
	// (the E-BIDIR ablation) b's one-hop neighborhood still has to be
	// computed once — the original algorithm's target test "the neighbor
	// is b" is unreachable here because b's cell is occupied by its pin;
	// reaching any site one hop from b is the equivalent test — but it is
	// never expanded further, so the wavefront proper grows from a only.
	if meet, chain := s.expand(a, 0); meet {
		return r.retrace(a, b, id, chain)
	}
	if meet, chain := s.expand(b, 1); meet {
		return r.retrace(a, b, id, chain)
	}

	for {
		side, ok := s.pickSide()
		if !ok {
			r.metrics.LeeBlocked++
			return Route{}, nil, s.victim(side), false
		}
		if r.searchAborted() {
			// Nothing has been placed yet (retrace only runs on a meet),
			// so failing here leaves the board untouched. The caller
			// decides whether the victim is usable; after a whole-route
			// abort it never rips up.
			return Route{}, nil, s.victim(side), false
		}
		it := s.sc.heaps[side].pop()
		if s.costCap > 0 && it.cost > s.costCap {
			// Every remaining entry on both heaps costs at least this
			// much (pickSide chose the cheaper side): the search is
			// hopeless within budget. Fail fast into rip-up.
			r.metrics.LeeBlocked++
			return Route{}, nil, s.victim(side), false
		}
		r.metrics.LeeExpansions++
		if meet, chain := s.expand(it.p, side); meet {
			return r.retrace(a, b, id, chain)
		}
	}
}

// pickSide chooses the wavefront to expand next: the one whose cheapest
// entry costs less. It returns ok=false, naming the exhausted side, when
// the search is blocked.
func (s *leeSearch) pickSide() (int, bool) {
	h := &s.sc.heaps
	if !s.r.Opts.Bidirectional || s.uni {
		if h[0].len() == 0 {
			return 0, false
		}
		return 0, true
	}
	switch {
	case h[0].len() == 0:
		return 0, false
	case h[1].len() == 0:
		return 1, false
	case h[0].top().cost <= h[1].top().cost:
		return 0, true
	default:
		return 1, true
	}
}

// victim returns the rip-up center after side's wavefront exhausted: the
// least-cost point ever inserted into it, or the source itself if the
// wavefront never grew at all.
func (s *leeSearch) victim(side int) geom.Point {
	if s.hasBest[side] {
		return s.best[side]
	}
	return s.sources[side]
}

// expand generates the neighbors of p for the given side. If a neighbor
// is already marked by the other side the wavefronts have met and the
// full via chain is returned.
func (s *leeSearch) expand(p geom.Point, side int) (bool, []hop) {
	r := s.r
	sc := s.sc
	target := s.sources[1-side]
	pm, _ := sc.lookMark(p)
	hops := pm.hops + 1

	for li, l := range r.B.Layers {
		box := r.neighborBox(p, l.Orient)
		r.metrics.ViasCalls++
		for _, n := range r.search.Vias(l, p, box, r.viaFree) {
			if _, bad := s.banned[hop{u: p, v: n, layer: li}]; bad {
				continue
			}
			if m, marked := sc.lookMark(n); marked {
				if int(m.side) != side {
					if s.uni && s.tuned {
						// Defer: queue the goal point under the tuned
						// cost; the meet happens when it pops.
						if _, seen := sc.goalFrom[n]; !seen {
							sc.goalFrom[n] = hop{u: p, v: n, layer: li}
							d := sc.delayOf(p) + int64(p.ManhattanDist(n))*s.cellFs[li]
							est := d + int64(n.ManhattanDist(target))*s.fastFs - s.targetFs
							if est < 0 {
								est = -est
							}
							s.seq++
							sc.heaps[0].push(leeItem{cost: est, seq: s.seq, p: n})
						}
						continue
					}
					// The wavefronts touch (Figure 14): build the chain
					// through the meeting point n.
					return true, s.chainThrough(p, n, li, side)
				}
				continue
			}
			sc.setMark(n, leeMark{from: p, layer: int8(li), hops: hops, side: uint8(side)})
			var cost int64
			if s.tuned {
				d := sc.delayOf(p) + int64(p.ManhattanDist(n))*s.cellFs[li]
				sc.setDelay(n, d)
				est := d + int64(n.ManhattanDist(target))*s.fastFs - s.targetFs
				if est < 0 {
					est = -est
				}
				cost = est
			} else if s.goal {
				// The classic figure of merit sharpened with the
				// preprocessed bound: the remaining-cost estimate is the
				// Manhattan distance plus one via penalty when the
				// lower-bound index proves the hop n sits on cannot reach
				// the target — every remaining path then provably spends
				// at least one more via, so the wavefront defers such
				// points and floods provably-blocked corridors last (or,
				// under the cost cap, not at all).
				h := int64(n.ManhattanDist(target))
				if r.lb.needsVia(n, target, r.Opts.Radius) {
					h += s.viaPen
				}
				cost = h * int64(hops)
			} else {
				cost = r.cost(n, target, hops)
			}
			if !s.hasBest[side] || cost < s.bestCost[side] {
				s.hasBest[side], s.bestCost[side], s.best[side] = true, cost, n
			}
			if side == 0 || (r.Opts.Bidirectional && !s.uni) {
				s.seq++
				sc.heaps[side].push(leeItem{cost: cost, seq: s.seq, p: n})
			}
		}
	}
	return false, nil
}

// chainThrough assembles the ordered hop list from source a to source b
// given that expanding p (on side) reached n, which the other side had
// already marked.
func (s *leeSearch) chainThrough(p, n geom.Point, li, side int) []hop {
	s.bridge = hop{u: p, v: n, layer: li}
	// Walk one side from a point back to its source, producing hops in
	// back-to-source order.
	walk := func(q geom.Point) []hop {
		var hs []hop
		for {
			m, _ := s.sc.lookMark(q)
			if m.from == q {
				return hs
			}
			hs = append(hs, hop{u: m.from, v: q, layer: int(m.layer)})
			q = m.from
		}
	}
	bridge := hop{u: p, v: n, layer: li}

	aSide, bSide := walk(p), walk(n)
	if side == 1 {
		aSide, bSide = walk(n), walk(p)
		bridge = hop{u: p, v: n, layer: li} // still traced from the expansion point
	}
	// aSide runs from deep point back to a: reverse it.
	chain := make([]hop, 0, len(aSide)+1+len(bSide))
	for i := len(aSide) - 1; i >= 0; i-- {
		chain = append(chain, aSide[i])
	}
	chain = append(chain, bridge)
	chain = append(chain, bSide...)
	return chain
}

// retrace materializes a met search (Figure 15): drill every interior via
// of the chain, then construct each hop's trace with Trace. A hop whose
// trace can no longer be completed (possible because drilling an interior
// via splits the free interval the earlier Vias call saw) aborts the
// route and is reported so the caller can ban it and search again.
func (r *Router) retrace(a, b geom.Point, id layer.ConnID, chain []hop) (Route, *hop, geom.Point, bool) {
	var rt Route
	for ci, h := range chain {
		for _, pt := range [2]geom.Point{h.u, h.v} {
			if pt == a || pt == b {
				continue
			}
			if r.B.ViaFree(pt) {
				if !r.drill(&rt, pt, id) {
					r.rollback(&rt)
					return Route{}, &chain[ci], pt, false
				}
			}
		}
	}
	for ci, h := range chain {
		li := h.layer
		l := r.B.Layers[li]
		box := r.neighborBox(h.u, l.Orient)
		r.metrics.TraceCalls++
		runs, ok := r.search.Trace(l, h.u, h.v, box)
		if !ok {
			r.rollback(&rt)
			return Route{}, &chain[ci], h.u, false
		}
		if !r.materialize(&rt, li, runs, id) {
			return Route{}, &chain[ci], h.u, false
		}
	}
	return rt, nil, geom.Point{}, true
}
