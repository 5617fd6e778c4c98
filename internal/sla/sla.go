// Package sla implements the paper's three single-layer algorithms
// (Section 7): Trace, Vias and Obstructions. All three are variations of
// one depth-first enumeration of the free space on a single layer, whose
// cost is proportional to the number of free segments examined rather
// than to the distance covered — "in the absence of obstacles, it is just
// as fast to make a connection across the board as to the neighboring
// pin".
//
// Everything the multiple-layer algorithms need to know about a layer is
// expressed through these three procedures. The procedures are hot (the
// router calls Vias once per layer per wavefront expansion), so they run
// on a reusable Searcher that amortizes the visited set and buffers; the
// package-level functions are convenience wrappers for tests and casual
// callers.
package sla

import (
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
	"sort"
)

// Run is one materializable piece of a trace: an occupied interval of one
// channel. Consecutive runs of a trace live in adjacent channels and
// share exactly one position (the junction where the trace jogs across).
type Run struct {
	Chan int
	Span geom.Interval
}

// Searcher carries the reusable state for the single-layer searches. It
// is not safe for concurrent use; give each goroutine its own.
type Searcher struct {
	cfg grid.Config

	// visited is an epoch-stamped set of maximal free intervals, keyed
	// by (channel, interval start): an entry is visited in the current
	// search iff its stored epoch matches. Epoch-stamping avoids
	// clearing the map on every call.
	visited map[uint64]uint32
	epoch   uint32

	// Per-call scratch, reused across calls.
	l      *layer.Layer
	chans  geom.Interval
	poswin geom.Interval

	path     []node
	outVias  []geom.Point
	outConns []layer.ConnID
	nbuf     []node
	sbuf     []node // start nodes; separate from nbuf, which Trace's DFS owns
	viaFree  func(geom.Point) bool
	seenConn map[layer.ConnID]struct{}
}

// NewSearcher builds a Searcher for boards using cfg.
func NewSearcher(cfg grid.Config) *Searcher {
	return &Searcher{
		cfg:      cfg,
		visited:  make(map[uint64]uint32, 1024),
		seenConn: make(map[layer.ConnID]struct{}, 16),
	}
}

// node is one visited maximal free interval, with its box-clipped
// effective range.
type node struct {
	ch  int
	iv  geom.Interval // unclipped maximal free interval (identity)
	eff geom.Interval // iv clipped to the box
}

func visitKey(ch, lo int) uint64 {
	return uint64(uint32(ch))<<32 | uint64(uint32(lo))
}

// begin resets the per-call state for a search on l within box.
func (s *Searcher) begin(l *layer.Layer, box geom.Rect) {
	s.l = l
	chans, poswin := s.cfg.ChanSpan(l.Orient, box)
	s.chans = chans.Intersect(geom.Iv(0, l.NumChannels()-1))
	s.poswin = poswin.Intersect(geom.Iv(0, l.ChannelLength()-1))
	s.epoch++
	if s.epoch == 0 || len(s.visited) > 1<<20 {
		// Epoch wrapped or the stale-key population grew too large:
		// start a fresh map.
		s.visited = make(map[uint64]uint32, 1024)
		s.epoch = 1
	}
}

func (s *Searcher) mark(n node) bool {
	k := visitKey(n.ch, n.iv.Lo)
	if s.visited[k] == s.epoch {
		return false
	}
	s.visited[k] = s.epoch
	return true
}

// startNodes appends to dst the free intervals that touch point p:
// intervals of p's channel overlapping [pos-1, pos+1]. The endpoint cell
// itself is normally occupied by the pin or via being connected, so
// "touching" means covering an adjacent cell along the channel (the
// physical trace then extends into the pad).
func (s *Searcher) startNodes(dst []node, p geom.Point) []node {
	ch, pos := s.cfg.ChanPos(s.l.Orient, p)
	if !s.chans.Contains(ch) {
		return dst
	}
	touch := geom.Iv(pos-1, pos+1).Intersect(s.poswin)
	if touch.Empty() {
		return dst
	}
	s.l.Chan(ch).VisitFree(touch, func(iv geom.Interval) bool {
		eff := iv.Intersect(s.poswin)
		dst = append(dst, node{ch: ch, iv: iv, eff: eff})
		return true
	})
	return dst
}

// touches reports whether node n can terminate a trace at point p: n lies
// in p's channel and covers a cell adjacent to p along the channel.
func (s *Searcher) touches(n node, p geom.Point) bool {
	ch, pos := s.cfg.ChanPos(s.l.Orient, p)
	return n.ch == ch && (n.eff.Contains(pos-1) || n.eff.Contains(pos+1))
}

// Trace answers "is there a trace between a and b on layer l lying
// entirely within box?" (Section 7.1). On success it returns the chain of
// channel runs from a to b, trimmed so consecutive runs share a single
// junction point; the caller materializes them. The returned runs never
// cover the endpoint cells themselves: the first and last runs stop at a
// cell adjacent to a and b along their channels. The returned slice is
// owned by the caller.
func (s *Searcher) Trace(l *layer.Layer, a, b geom.Point, box geom.Rect) ([]Run, bool) {
	if a == b {
		return nil, false
	}
	s.begin(l, box)
	dstCh, dstPos := s.cfg.ChanPos(l.Orient, b)

	s.path = s.path[:0]
	var dfs func(n node) bool
	dfs = func(n node) bool {
		if !s.mark(n) {
			return false
		}
		if s.touches(n, b) {
			s.path = append(s.path, n)
			return true
		}
		// Enumerate the free intervals of the two adjacent channels that
		// overlap this one, best-to-worst by distance to the destination
		// (the paper: "the one nearest the destination is searched
		// first").
		base := len(s.nbuf)
		for _, ch := range [2]int{n.ch - 1, n.ch + 1} {
			if !s.chans.Contains(ch) {
				continue
			}
			s.l.Chan(ch).VisitFree(n.eff, func(iv geom.Interval) bool {
				eff := iv.Intersect(s.poswin)
				s.nbuf = append(s.nbuf, node{ch: ch, iv: iv, eff: eff})
				return true
			})
		}
		// Candidate lists here can exceed a dozen entries, and the exact
		// permutation sort.Slice gives equal-distance candidates steers
		// the DFS; replacing it with a differently tie-ordered sort
		// changes route choices (and so the recorded Table 1 metrics)
		// even though any order is "correct".
		cand := s.nbuf[base:]
		sort.Slice(cand, func(i, j int) bool {
			di := absInt(cand[i].ch-dstCh) + cand[i].eff.DistTo(dstPos)
			dj := absInt(cand[j].ch-dstCh) + cand[j].eff.DistTo(dstPos)
			return di < dj
		})
		for i := range cand {
			if dfs(cand[i]) {
				s.path = append(s.path, n)
				s.nbuf = s.nbuf[:base]
				return true
			}
		}
		s.nbuf = s.nbuf[:base]
		return false
	}

	s.nbuf = s.nbuf[:0]
	s.sbuf = s.startNodes(s.sbuf[:0], a)
	starts := s.sbuf
	for i := 1; i < len(starts); i++ {
		for j := i; j > 0 && starts[j].eff.DistTo(dstPos) < starts[j-1].eff.DistTo(dstPos); j-- {
			starts[j], starts[j-1] = starts[j-1], starts[j]
		}
	}
	for _, st := range starts {
		if dfs(st) {
			reverse(s.path) // built during unwinding, b-end first
			return s.trim(l.Orient, a, b), true
		}
	}
	return nil, false
}

// trim converts the node path (a-end first) into runs, cutting the large
// overlaps between consecutive free intervals back to single junction
// points (Section 7.1, Figure 7). Junctions are assigned back-to-front,
// each clamped toward its successor: this both snaps the route into
// L shapes where the free space allows and guarantees that consecutive
// runs share exactly one cell (no doubled-back parallel metal).
func (s *Searcher) trim(o grid.Orientation, a, b geom.Point) []Run {
	path := s.path
	_, posA := s.cfg.ChanPos(o, a)
	_, posB := s.cfg.ChanPos(o, b)

	// Choose the touch cells: prefer the side of each endpoint that faces
	// the route, falling back to whichever side is available.
	touchOf := func(n node, pos, towards int) int {
		near, far := pos-1, pos+1
		if towards > pos {
			near, far = pos+1, pos-1
		}
		if n.eff.Contains(near) {
			return near
		}
		return far
	}
	last := len(path) - 1
	tb := touchOf(path[last], posB, posA)

	// junc[i] is the crossing point between path[i] and path[i+1].
	junc := make([]int, last)
	next := tb
	for i := last - 1; i >= 0; i-- {
		overlap := path[i].eff.Intersect(path[i+1].eff)
		junc[i] = overlap.Clamp(next)
		next = junc[i]
	}
	entry := touchOf(path[0], posA, next)

	runs := make([]Run, len(path))
	for i := range path {
		exit := tb
		if i < last {
			exit = junc[i]
		}
		runs[i] = Run{Chan: path[i].ch, Span: geom.Iv(min(entry, exit), max(entry, exit))}
		entry = exit
	}
	return runs
}

// Vias answers "what via sites are reachable from point a on layer l by
// paths lying entirely within box?" (Section 7.2). The enumeration is
// exhaustive; every free via site covered by reachable free space is
// reported, provided the covering interval also contains an adjacent
// cell, so that a later Trace call to the site can terminate. viaFree
// filters sites by global availability (the via map); pass nil to accept
// every site on the via grid.
//
// The returned slice is reused by the next Searcher call; consume it
// before calling again.
func (s *Searcher) Vias(l *layer.Layer, a geom.Point, box geom.Rect, viaFree func(geom.Point) bool) []geom.Point {
	s.begin(l, box)
	s.outVias = s.outVias[:0]
	s.viaFree = viaFree

	// viasDFS never touches nbuf, so the start nodes can live in it
	// directly; startNodes(nil, ...) would allocate a fresh slice on
	// every call, and Vias runs once per layer per wavefront expansion.
	s.nbuf = s.startNodes(s.nbuf[:0], a)
	for _, st := range s.nbuf {
		s.viasDFS(st)
	}
	return s.outVias
}

func (s *Searcher) viasDFS(n node) {
	if !s.mark(n) {
		return
	}
	s.collectVias(n)
	for _, ch := range [2]int{n.ch - 1, n.ch + 1} {
		if !s.chans.Contains(ch) {
			continue
		}
		s.l.Chan(ch).VisitFree(n.eff, func(iv geom.Interval) bool {
			eff := iv.Intersect(s.poswin)
			s.viasDFS(node{ch: ch, iv: iv, eff: eff})
			return true
		})
	}
}

func (s *Searcher) collectVias(n node) {
	pitch := s.cfg.Pitch
	if n.ch%pitch != 0 {
		return
	}
	first := n.eff.Lo
	if r := first % pitch; r != 0 {
		first += pitch - r
	}
	for pos := first; pos <= n.eff.Hi; pos += pitch {
		if !n.eff.Contains(pos-1) && !n.eff.Contains(pos+1) {
			continue // a trace could never terminate at this site
		}
		p := s.cfg.PointAt(s.l.Orient, n.ch, pos)
		if s.viaFree == nil || s.viaFree(p) {
			s.outVias = append(s.outVias, p)
		}
	}
}

// Obstructions answers "what connections are near point a on layer l
// lying in box?" (Section 7.3): the owners of the used segments that
// bound the free space reachable from a. Permanent owners (pins, fills,
// keepouts) are never reported, since they cannot be ripped up.
//
// The returned slice is reused by the next Searcher call; consume it
// before calling again.
func (s *Searcher) Obstructions(l *layer.Layer, a geom.Point, box geom.Rect) []layer.ConnID {
	s.begin(l, box)
	s.outConns = s.outConns[:0]
	clear(s.seenConn)

	// The segments at and around a itself are obstacles too.
	ch, pos := s.cfg.ChanPos(l.Orient, a)
	if s.chans.Contains(ch) {
		s.l.Chan(ch).VisitUsed(geom.Iv(pos-1, pos+1), func(seg *layer.Segment) bool {
			s.noteConn(seg.Owner)
			return true
		})
	}
	s.nbuf = s.startNodes(s.nbuf[:0], a)
	for _, st := range s.nbuf {
		s.obstructionsDFS(st)
	}
	return s.outConns
}

func (s *Searcher) noteConn(id layer.ConnID) {
	if id.Permanent() {
		return
	}
	if _, dup := s.seenConn[id]; !dup {
		s.seenConn[id] = struct{}{}
		s.outConns = append(s.outConns, id)
	}
}

func (s *Searcher) obstructionsDFS(n node) {
	if !s.mark(n) {
		return
	}
	// The segments bounding the interval within its own channel.
	c := s.l.Chan(n.ch)
	if n.iv.Lo > 0 {
		if seg := c.SegmentAt(n.iv.Lo - 1); seg != nil {
			s.noteConn(seg.Owner)
		}
	}
	if n.iv.Hi < s.l.ChannelLength()-1 {
		if seg := c.SegmentAt(n.iv.Hi + 1); seg != nil {
			s.noteConn(seg.Owner)
		}
	}
	for _, ch := range [2]int{n.ch - 1, n.ch + 1} {
		if !s.chans.Contains(ch) {
			continue
		}
		// Record used segments alongside the reachable free space...
		s.l.Chan(ch).VisitUsed(n.eff, func(seg *layer.Segment) bool {
			s.noteConn(seg.Owner)
			return true
		})
		// ...and keep expanding through the free intervals.
		s.l.Chan(ch).VisitFree(n.eff, func(iv geom.Interval) bool {
			s.obstructionsDFS(node{ch: ch, iv: iv, eff: iv.Intersect(s.poswin)})
			return true
		})
	}
}

// Trace is the one-shot form of Searcher.Trace.
func Trace(cfg grid.Config, l *layer.Layer, a, b geom.Point, box geom.Rect) ([]Run, bool) {
	return NewSearcher(cfg).Trace(l, a, b, box)
}

// Vias is the one-shot form of Searcher.Vias.
func Vias(cfg grid.Config, l *layer.Layer, a geom.Point, box geom.Rect, viaFree func(geom.Point) bool) []geom.Point {
	return NewSearcher(cfg).Vias(l, a, box, viaFree)
}

// Obstructions is the one-shot form of Searcher.Obstructions.
func Obstructions(cfg grid.Config, l *layer.Layer, a geom.Point, box geom.Rect) []layer.ConnID {
	return NewSearcher(cfg).Obstructions(l, a, box)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func reverse(p []node) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}
