// Incremental re-routing (DESIGN §15). A router built with
// Options.RecordRegions remembers, per connection, either the last
// clean routing turn — zero rip-ups, committed in one ladder run: its
// metal, its method, the board region the search read, and the pass it
// happened on (a memo) — or, for every turn that was not clean, the
// union of the turn's mutation extents (churn). After a design edit,
// Reroute builds a fresh router over the edited board and connection
// list and replays: a connection's memo is adopted verbatim — the
// metal placed without searching — exactly when nothing the original
// search could have observed differs on the edited board; everything
// else goes through the ordinary ladder. The dirty-region bookkeeping
// below makes "could have observed" precise, so the replayed board is
// identical to a from-scratch route of the edited design and only the
// connections an edit actually disturbs pay for a search.
package core

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/geom"
)

// emptyRect is the empty-region sentinel (geom.Rect's zero value is the
// single cell at the origin, not empty).
func emptyRect() geom.Rect { return geom.R(0, 0, -1, -1) }

// readRegion accumulates the board region one routing turn reads and
// writes: cells covers channel-cell occupancy (searcher scans plus every
// cell the turn tried to place metal on), vias covers via-map probe
// sites. A memo whose region is disjoint from every later divergence
// could not have observed it.
type readRegion struct {
	cells geom.Rect
	vias  geom.Rect
}

// trackRun notes that the current turn read (and possibly wrote) the
// cells of channel ch spanning [lo, hi] on layer li.
func (r *Router) trackRun(li, ch, lo, hi int) {
	if r.track == nil {
		return
	}
	o := r.B.Layers[li].Orient
	rect := geom.Bounding(r.B.Cfg.PointAt(o, ch, lo), r.B.Cfg.PointAt(o, ch, hi))
	r.track.cells = r.track.cells.Union(rect)
}

// trackPt notes a via probe or drill at p: the via map at p and the
// cell p on every layer.
func (r *Router) trackPt(p geom.Point) {
	if r.track == nil {
		return
	}
	pr := geom.Bounding(p, p)
	r.track.cells = r.track.cells.Union(pr)
	r.track.vias = r.track.vias.Union(pr)
}

// connMemo is one connection's last clean routing turn, in board
// coordinates so it can be replayed onto a different Router's board.
type connMemo struct {
	pass   int
	method Method
	segs   []CheckpointSeg
	vias   []geom.Point
	// region is everything the turn read: searcher scan extents plus
	// every cell and via site the ladder probed or placed on. A memo
	// may be adopted only while the replay's dirty set is disjoint
	// from it.
	region readRegion
	// metal is the bounding box of the turn's committed placements —
	// what must enter the dirty set when the memo's connection is
	// removed or re-routed differently.
	metal geom.Rect
	// lbHash, under EngineGoal, fingerprints the full-channel picture
	// the goal heuristic read (lbIndex.fullHash): the heuristic reads
	// board-wide congestion outside the tracked region, so adoption
	// additionally requires the picture to be reproduced.
	lbHash uint64
}

// replayState is the dirty-region set of one Reroute run: every board
// rectangle on which the edited run's history is (or may be) different
// from the recorded run's. It only ever grows.
type replayState struct {
	dirty []geom.Rect
}

func (s *replayState) addDirty(r geom.Rect) {
	if !r.Empty() {
		s.dirty = append(s.dirty, r)
	}
}

// clean reports whether reg is disjoint from every dirty rectangle.
func (s *replayState) clean(reg readRegion) bool {
	for _, d := range s.dirty {
		if !reg.cells.Intersect(d).Empty() || !reg.vias.Intersect(d).Empty() {
			return false
		}
	}
	return true
}

// routeTurn is routeOne bracketed by the RecordRegions bookkeeping: on
// a replay router it first tries to adopt the connection's memo, and
// in every case it captures the turn's read region and mutation
// extents — including the deferred put-backs inside routeOne — and
// files the outcome as a memo or as churn. Without RecordRegions it is
// routeOne.
func (r *Router) routeTurn(i int) bool {
	if !r.Opts.RecordRegions {
		return r.routeOne(i)
	}
	if c := &r.Conns[i]; c.A == c.B {
		return r.routeOne(i) // Trivial: no metal, nothing to record
	}
	if r.replay != nil && !r.inEscalate {
		if m := r.memos[i]; m != nil && m.pass == r.curPass && r.memoAdopt(i, m) {
			return true
		}
	}
	r.beginTurn()
	ripBase := r.metrics.RipUps
	ok := r.routeOne(i)
	region, rect := r.endTurn()
	clean := ok && r.metrics.RipUps == ripBase && r.abortReason == AbortNone
	r.recordTurn(i, ok, clean, region, rect)
	return ok
}

// beginTurn arms the per-turn read/write accumulators.
func (r *Router) beginTurn() {
	r.turnRegion = readRegion{cells: emptyRect(), vias: emptyRect()}
	r.track = &r.turnRegion
	r.search.ResetReads()
	r.turnRect = emptyRect()
}

// endTurn disarms them and returns the turn's read region (tracked
// placements plus searcher scan extents) and mutation bounding box.
func (r *Router) endTurn() (readRegion, geom.Rect) {
	r.track = nil
	cells, vias := r.search.ReadExtent()
	region := readRegion{
		cells: r.turnRegion.cells.Union(cells),
		vias:  r.turnRegion.vias.Union(vias),
	}
	return region, r.turnRect
}

// recordTurn files one completed (non-adopted) turn of connection i:
// clean turns become the connection's memo, everything else accrues to
// its churn. On a replay router it also grows the dirty set with the
// turn's divergence from the recorded run — the turn's own mutations
// plus the recorded metal it superseded — unless the turn reproduced
// its memo exactly, in which case the boards did not diverge at all.
func (r *Router) recordTurn(i int, ok, clean bool, region readRegion, rect geom.Rect) {
	prev := r.memos[i]
	if r.replay != nil {
		if !(ok && clean && prev != nil && r.memoMatches(i, prev)) {
			r.replay.addDirty(rect)
			if prev != nil {
				r.replay.addDirty(prev.metal)
			}
		}
		r.incRerouted++
		if r.obs != nil {
			r.obs.incRerouted.Add(1)
		}
	}
	if clean && !r.inEscalate {
		r.memos[i] = r.buildMemo(i, region, rect)
		return
	}
	delete(r.memos, i)
	cur, has := r.churn[i]
	if !has {
		cur = emptyRect()
	}
	r.churn[i] = cur.Union(rect)
}

// buildMemo captures connection i's just-committed route.
func (r *Router) buildMemo(i int, region readRegion, metal geom.Rect) *connMemo {
	rt := &r.routes[i]
	m := &connMemo{
		pass:   r.curPass,
		method: rt.Method,
		region: region,
		metal:  metal,
	}
	for _, ps := range rt.Segs {
		m.segs = append(m.segs, CheckpointSeg{
			Layer: ps.Layer, Ch: ps.Seg.Channel(), Lo: ps.Seg.Lo, Hi: ps.Seg.Hi,
		})
	}
	for _, pv := range rt.Vias {
		m.vias = append(m.vias, pv.At)
	}
	if r.lb != nil {
		m.lbHash = r.lb.fullHash()
	}
	return m
}

// memoMatches reports whether connection i's current route is exactly
// the memoized one — same method, same segments in order, same vias.
func (r *Router) memoMatches(i int, m *connMemo) bool {
	rt := &r.routes[i]
	if rt.Method != m.method || len(rt.Segs) != len(m.segs) || len(rt.Vias) != len(m.vias) {
		return false
	}
	for k, ps := range rt.Segs {
		cs := m.segs[k]
		if ps.Layer != cs.Layer || ps.Seg.Channel() != cs.Ch || ps.Seg.Lo != cs.Lo || ps.Seg.Hi != cs.Hi {
			return false
		}
	}
	for k, pv := range rt.Vias {
		if pv.At != m.vias[k] {
			return false
		}
	}
	return true
}

// memoAdopt re-places connection i's memoized route on the replay
// board without searching. The caller has matched the memo's pass to
// the turn in flight; adoption further requires the memo's read region
// to be disjoint from the dirty set (so the original search could not
// have observed anything the edit changed) and, under EngineGoal, the
// lower-bound congestion picture to be reproduced. Any placement
// collision — impossible while the dirty bookkeeping is sound, but
// cheap to guard — rolls back and falls through to the real ladder.
func (r *Router) memoAdopt(i int, m *connMemo) bool {
	if r.replay == nil || !r.replay.clean(m.region) {
		return false
	}
	if r.lb != nil && r.lb.fullHash() != m.lbHash {
		return false
	}
	id := r.connID(i)
	var rt Route
	// Vias first, then trace segments: the order retrace and Resume
	// materialize in, so the via barrels split channel intervals before
	// the runs that abut them are placed.
	for _, v := range m.vias {
		pv, ok := r.tx(&rt).PlaceVia(v, id)
		if !ok {
			r.rollback(&rt)
			return false
		}
		rt.Vias = append(rt.Vias, pv)
	}
	for _, cs := range m.segs {
		s := r.tx(&rt).AddSegment(cs.Layer, cs.Ch, cs.Lo, cs.Hi, id)
		if s == nil {
			r.rollback(&rt)
			return false
		}
		rt.Segs = append(rt.Segs, PlacedSeg{Layer: cs.Layer, Seg: s})
	}
	r.commit(i, rt, m.method)
	r.incAdopted++
	if r.obs != nil {
		r.obs.incAdopted.Add(1)
	}
	return true
}

// IncStats reports the replay outcomes of an incremental run (a router
// returned by Reroute): connections adopted straight from their memo,
// and connections routed through the full ladder. Non-replay routers
// report zeros. These are operational counters, kept out of Metrics
// (whose integer serialization belongs to the snapshot codec); the obs
// registry exports them as incremental metric series.
func (r *Router) IncStats() (adopted, rerouted int) {
	return r.incAdopted, r.incRerouted
}

// EditOp enumerates the design edits incremental re-routing accepts.
type EditOp uint8

const (
	// EditBlock declares a board rectangle newly forbidden. The caller
	// realizes the keepout on the edited board (board.PlaceKeepout,
	// before routing); the edit entry feeds the rectangle into the
	// dirty set so every route that read it is re-routed.
	EditBlock EditOp = iota
	// EditRemoveNet drops every connection of the named net. The
	// connections stay in the list as zero-length placeholders so the
	// surviving connections keep their indices (and thus their
	// segment-owner IDs and memos).
	EditRemoveNet
	// EditAddConn appends a new connection.
	EditAddConn
)

// Edit is one design edit. Exactly the fields its Op names are read.
type Edit struct {
	Op   EditOp
	Rect geom.Rect  // EditBlock: the newly forbidden rectangle
	Net  string     // EditRemoveNet: the net to drop
	Conn Connection // EditAddConn: the connection to add
}

// EditConns derives the edited connection list: removed nets are
// trivialized in place (A == B placeholders, preserving every other
// connection's index) and added connections are appended. Routing the
// result from scratch on the edited board is the oracle an incremental
// Reroute reproduces.
func EditConns(conns []Connection, edits []Edit) []Connection {
	out := append([]Connection(nil), conns...)
	for _, e := range edits {
		switch e.Op {
		case EditRemoveNet:
			for i := range out {
				if out[i].Net == e.Net {
					out[i].B = out[i].A
				}
			}
		case EditAddConn:
			out = append(out, e.Conn)
		}
	}
	return out
}

// algoOptions projects the options that change routed output. Reroute
// refuses a tweak that alters any of them: memos record what a search
// under the original settings did, and adopting one under different
// settings would diverge from the from-scratch oracle.
type algoOptions struct {
	Radius         int
	Sort           bool
	Cost           CostFn
	Bidirectional  bool
	Engine         Engine
	MaxRipupRounds int
	RipupRadius    int
	CostCapFactor  int
	MaxPasses      int
	AllowOffGrid   bool
	IDBase         int
	Escalate       bool
	NodeBudget     int
}

func algoOf(o Options) algoOptions {
	return algoOptions{
		Radius:         o.Radius,
		Sort:           o.Sort,
		Cost:           o.Cost,
		Bidirectional:  o.Bidirectional,
		Engine:         o.Engine,
		MaxRipupRounds: o.MaxRipupRounds,
		RipupRadius:    o.RipupRadius,
		CostCapFactor:  o.CostCapFactor,
		MaxPasses:      o.MaxPasses,
		AllowOffGrid:   o.AllowOffGrid,
		IDBase:         o.IDBase,
		Escalate:       o.Escalate,
		NodeBudget:     o.NodeBudget,
	}
}

// Reroute builds the incremental replay router for an edited design.
//
// r must have routed with Options.RecordRegions. b2 is the edited
// board, fully prepared by the caller exactly as for a fresh run: pins
// placed for the edited connection list, EditBlock keepouts realized —
// and otherwise empty. edits are the design deltas; tweak, if non-nil,
// may adjust operational options (budgets, checkpointing, metrics) on
// the replay router but not algorithmic ones.
//
// The returned router has not routed yet: call Route (or RouteContext)
// on it. Its output — board Fingerprint, Audit, failed connections —
// is identical to routing EditConns(r.Conns, edits) from scratch on
// b2; only the connections the edits disturb run a real search. The
// replay router again records regions, so further edits chain.
func (r *Router) Reroute(b2 *board.Board, edits []Edit, tweak func(*Options)) (*Router, error) {
	if !r.Opts.RecordRegions {
		return nil, fmt.Errorf("core: Reroute requires a router built with Options.RecordRegions")
	}
	conns2 := EditConns(r.Conns, edits)
	opts := r.Opts
	opts.RecordRegions = true
	if tweak != nil {
		tweak(&opts)
		if algoOf(opts) != algoOf(r.Opts) {
			return nil, fmt.Errorf("core: Reroute tweak changed algorithmic options")
		}
		opts.RecordRegions = true
	}
	nr, err := New(b2, conns2, opts)
	if err != nil {
		return nil, err
	}
	rp := &replayState{}
	removed := make(map[int]bool)
	for _, e := range edits {
		switch e.Op {
		case EditBlock:
			rp.addDirty(e.Rect)
		case EditRemoveNet:
			for i := range r.Conns {
				if r.Conns[i].Net == e.Net {
					removed[i] = true
				}
			}
		}
	}
	// Seed the dirty set with everything the edited run cannot replay
	// verbatim: removed connections' recorded metal (their space is
	// newly free) and the mutation extents of every turn that was not
	// clean (rip-ups, put-backs, failures, escalation — history the
	// memos do not describe). Surviving memos transfer by index:
	// EditConns keeps indices stable.
	for i, m := range r.memos {
		if m == nil {
			// No memo: the connection's last turn was not clean (or it
			// was trivial/unrouted); whatever metal it left is already in
			// r.churn, which seeds the dirty set below.
			continue
		}
		if removed[i] {
			rp.addDirty(m.metal)
			continue
		}
		nr.memos[i] = m
	}
	for _, rect := range r.churn {
		rp.addDirty(rect)
	}
	nr.replay = rp
	return nr, nil
}
