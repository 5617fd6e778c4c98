package core

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// This file implements the reusable search state behind the generalized
// Lee engine. The paper's whole performance argument (Sections 7–8) is
// that routing time should be proportional to the few segments a search
// touches; re-allocating maps and interface-boxed heap items for every
// connection buries that win under hashing and garbage collection. A
// Router therefore owns one searchScratch for its lifetime:
//
//   - marks (and the tuned search's per-point delays) live in a dense
//     array indexed by via-grid position, invalidated per search by a
//     generation counter instead of reallocation, with a tiny map spill
//     for the off-grid endpoints of Section 11's extension;
//   - the two wavefront heaps are typed binary heaps over leeItem,
//     replacing container/heap's any-boxed items, with backing arrays
//     that persist across searches;
//   - the ban set and the tuned search's goal table are long-lived maps,
//     cleared (cheap when near-empty, as they almost always are) rather
//     than remade;
//   - the one-via candidate dedup store is a second generation-stamped
//     dense array shared by every oneViaPts call.
//
// In steady state a Lee search performs no heap allocations per expanded
// node; TestLeeSteadyStateAllocs pins that down.

// denseMark is one via site's slot in the dense mark store. The slot is
// live only while its gen matches the scratch's current generation.
type denseMark struct {
	gen     uint32
	mark    leeMark
	delayFs int64
}

// spillMark carries the same payload for points outside the via grid
// (off-grid connection endpoints).
type spillMark struct {
	mark    leeMark
	delayFs int64
}

// searchScratch is the per-Router arena for Lee and one-via searches.
// It is not safe for concurrent use; give each goroutine its own Router.
type searchScratch struct {
	pitch   int
	viaCols int
	bounds  geom.Rect

	gen   uint32
	dense []denseMark
	spill map[geom.Point]spillMark

	heaps    [2]leeHeap
	banned   banSet
	goalFrom map[geom.Point]hop

	visitGen uint32
	visited  []uint32

	search leeSearch
}

// init sizes the dense stores for one board. Called once per Router.
func (sc *searchScratch) init(cfg grid.Config) {
	sc.pitch = cfg.Pitch
	sc.viaCols = cfg.ViaCols()
	sc.bounds = cfg.Bounds()
	n := cfg.ViaCols() * cfg.ViaRows()
	sc.dense = make([]denseMark, n)
	sc.visited = make([]uint32, n)
	sc.spill = make(map[geom.Point]spillMark)
	sc.banned = make(banSet)
	sc.goalFrom = make(map[geom.Point]hop)
}

// denseIdx maps an on-board via site to its dense-store index, or -1 for
// off-grid or off-board points (which fall back to the spill map).
func (sc *searchScratch) denseIdx(p geom.Point) int {
	if p.X%sc.pitch != 0 || p.Y%sc.pitch != 0 || !p.In(sc.bounds) {
		return -1
	}
	return (p.Y/sc.pitch)*sc.viaCols + p.X/sc.pitch
}

// beginSearch invalidates the previous search's marks and heap contents
// and returns the embedded leeSearch, reset and seeded with the two
// sources. The caller fills in search-specific fields (ban set, cost
// cap, tuned parameters) before expanding.
func (sc *searchScratch) beginSearch(r *Router, a, b geom.Point) *leeSearch {
	sc.gen++
	if sc.gen == 0 { // generation counter wrapped: flush the stale stamps
		for i := range sc.dense {
			sc.dense[i].gen = 0
		}
		sc.gen = 1
	}
	if len(sc.spill) > 0 {
		clear(sc.spill)
	}
	sc.heaps[0].reset()
	sc.heaps[1].reset()
	s := &sc.search
	*s = leeSearch{r: r, sc: sc, sources: [2]geom.Point{a, b}}
	sc.setMark(a, leeMark{from: a, side: 0})
	sc.setMark(b, leeMark{from: b, side: 1})
	return s
}

// lookMark returns p's mark for the current search, if set.
func (sc *searchScratch) lookMark(p geom.Point) (leeMark, bool) {
	if i := sc.denseIdx(p); i >= 0 {
		if e := &sc.dense[i]; e.gen == sc.gen {
			return e.mark, true
		}
		return leeMark{}, false
	}
	m, ok := sc.spill[p]
	return m.mark, ok
}

// setMark records how p was reached in the current search.
func (sc *searchScratch) setMark(p geom.Point, m leeMark) {
	if i := sc.denseIdx(p); i >= 0 {
		sc.dense[i] = denseMark{gen: sc.gen, mark: m}
		return
	}
	sc.spill[p] = spillMark{mark: m}
}

// delayOf returns p's accumulated path delay (tuned searches only);
// unset points — the sources — read as zero, as the map did.
func (sc *searchScratch) delayOf(p geom.Point) int64 {
	if i := sc.denseIdx(p); i >= 0 {
		if e := &sc.dense[i]; e.gen == sc.gen {
			return e.delayFs
		}
		return 0
	}
	return sc.spill[p].delayFs
}

// setDelay stores p's accumulated path delay. p must have been marked in
// the current search (setMark precedes setDelay in expand).
func (sc *searchScratch) setDelay(p geom.Point, d int64) {
	if i := sc.denseIdx(p); i >= 0 {
		sc.dense[i].delayFs = d
		return
	}
	e := sc.spill[p]
	e.delayFs = d
	sc.spill[p] = e
}

// beginVisited starts a fresh one-via candidate dedup epoch.
func (sc *searchScratch) beginVisited() {
	sc.visitGen++
	if sc.visitGen == 0 {
		clear(sc.visited)
		sc.visitGen = 1
	}
}

// tryVisit reports whether via site v is new in the current dedup epoch,
// stamping it. Off-board candidates are never stamped: they are rejected
// by the bounds check immediately, so re-offering them is harmless.
func (sc *searchScratch) tryVisit(v geom.Point) bool {
	i := sc.denseIdx(v)
	if i < 0 {
		return true
	}
	if sc.visited[i] == sc.visitGen {
		return false
	}
	sc.visited[i] = sc.visitGen
	return true
}

// leeHeap is a typed binary min-heap of leeItems ordered by (cost, seq),
// replacing container/heap to avoid boxing every item in an interface
// and to reuse the backing array across searches. (cost, seq) is a
// strict total order — seq numbers are unique — so every correct heap
// pops the same globally sorted sequence; swapping the implementation
// cannot change any routing decision.
type leeHeap struct {
	a []leeItem
}

func leeItemLess(x, y leeItem) bool {
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	return x.seq < y.seq
}

func (h *leeHeap) reset()       { h.a = h.a[:0] }
func (h *leeHeap) len() int     { return len(h.a) }
func (h *leeHeap) top() leeItem { return h.a[0] }

func (h *leeHeap) push(it leeItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !leeItemLess(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *leeHeap) pop() leeItem {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		least := l
		if r < n && leeItemLess(h.a[r], h.a[l]) {
			least = r
		}
		if !leeItemLess(h.a[least], h.a[i]) {
			break
		}
		h.a[i], h.a[least] = h.a[least], h.a[i]
		i = least
	}
	return top
}
