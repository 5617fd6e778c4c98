package core

import (
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
)

// layerAllowsDirect reports whether a direct (zero-via) connection
// between p and q may be attempted on a layer of orientation o under the
// radius constraint of Section 8.1: orthogonal movement on the layer is
// limited to radius via units.
func (r *Router) layerAllowsDirect(o grid.Orientation, p, q geom.Point) bool {
	limit := r.Opts.Radius * r.B.Cfg.Pitch
	if o == grid.Horizontal {
		return absInt(p.Y-q.Y) <= limit
	}
	return absInt(p.X-q.X) <= limit
}

// directBox is the search box for a zero-via attempt between p and q: the
// bounding rectangle grown by the radius on every side, clipped to the
// board.
func (r *Router) directBox(p, q geom.Point) geom.Rect {
	d := r.Opts.Radius * r.B.Cfg.Pitch
	return geom.Bounding(p, q).Expand(d).Intersect(r.B.Cfg.Bounds())
}

// zeroVia attempts the simplest strategy: a single trace on some layer
// whose orientation admits the connection (Section 8.1). It stops after
// the first successful Trace call.
func (r *Router) zeroVia(i int) (Route, bool) {
	c := &r.Conns[i]
	return r.zeroViaPts(c.A, c.B, r.connID(i))
}

// zeroViaPts is zeroVia for arbitrary endpoints (the tuning package
// routes stretched legs between waypoint vias).
func (r *Router) zeroViaPts(a, b geom.Point, id layer.ConnID) (Route, bool) {
	box := r.directBox(a, b)
	for li, l := range r.B.Layers {
		if !r.layerAllowsDirect(l.Orient, a, b) {
			continue
		}
		r.metrics.TraceCalls++
		runs, ok := r.search.Trace(l, a, b, box)
		if !ok {
			continue
		}
		var rt Route
		if r.materialize(&rt, li, runs, id) {
			return rt, true
		}
	}
	return Route{}, false
}

// oneVia attempts the divide-and-conquer one-via strategy of Section 8.1:
// choose an intermediate via v near one of the two corners of the
// rectangle bounding a and b, then solve the two zero-via subproblems
// a–v and v–b. Candidates are enumerated best-to-worst — the corner
// centers first, since connections to them block the fewest channels.
func (r *Router) oneVia(i int) (Route, bool) {
	c := &r.Conns[i]
	return r.oneViaPts(c.A, c.B, r.connID(i))
}

// oneViaPts is oneVia for arbitrary endpoints.
func (r *Router) oneViaPts(a, b geom.Point, id layer.ConnID) (Route, bool) {
	cfg := r.B.Cfg
	bounds := cfg.Bounds()
	pitch := cfg.Pitch
	rad := r.Opts.Radius

	// Snap the corners to the via grid: with off-grid endpoints
	// (Section 11 extension) the geometric corner may not be a legal via
	// site.
	corners := [2]geom.Point{
		cfg.NearestViaSite(geom.Pt(b.X, a.Y)),
		cfg.NearestViaSite(geom.Pt(a.X, b.Y)),
	}

	// Candidate dedup runs on the scratch's generation-stamped dense
	// store instead of a per-call map: oneVia is probed for nearly every
	// connection, so the map allocation was pure routing overhead.
	sc := &r.scratch
	sc.beginVisited()
	for d := 0; d <= 2*rad; d++ {
		for dx := -rad; dx <= rad; dx++ {
			dy := d - absInt(dx)
			if dy < 0 || dy > rad {
				continue
			}
			for _, sy := range [2]int{1, -1} {
				if dy == 0 && sy == -1 {
					continue
				}
				for _, corner := range corners {
					v := geom.Pt(corner.X+dx*pitch, corner.Y+sy*dy*pitch)
					if !sc.tryVisit(v) {
						continue
					}
					if rt, ok := r.tryOneViaCandidate(a, b, id, v, bounds); ok {
						return rt, true
					}
				}
			}
		}
	}
	return Route{}, false
}

// tryOneViaCandidate drills v and attempts the two zero-via legs.
func (r *Router) tryOneViaCandidate(a, b geom.Point, id layer.ConnID, v geom.Point, bounds geom.Rect) (Route, bool) {
	if !v.In(bounds) || v == a || v == b {
		return Route{}, false
	}
	if !r.B.ViaFree(v) {
		return Route{}, false
	}
	var rt Route
	// Drill first: tracing toward an already-occupied endpoint keeps the
	// single-layer touch rules uniform (traces always stop beside the
	// target cell).
	if !r.drill(&rt, v, id) {
		return Route{}, false
	}
	if r.traceLeg(&rt, a, v, id) && r.traceLeg(&rt, v, b, id) {
		return rt, true
	}
	r.rollback(&rt)
	return Route{}, false
}

// traceLeg routes the zero-via leg p–q on the first layer that admits it.
// On a materialization collision rt has already been rolled back, so the
// leg simply reports failure.
func (r *Router) traceLeg(rt *Route, p, q geom.Point, id layer.ConnID) bool {
	box := r.directBox(p, q)
	for li, l := range r.B.Layers {
		if !r.layerAllowsDirect(l.Orient, p, q) {
			continue
		}
		r.metrics.TraceCalls++
		runs, ok := r.search.Trace(l, p, q, box)
		if !ok {
			continue
		}
		return r.materialize(rt, li, runs, id)
	}
	return false
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
