package verify

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layer"
)

type cell struct {
	layer int
	x, y  int
}

// referenceConnection is the cell-flood oracle that Connection replaced,
// kept unchanged as the reference the tests hold Connection to. It
// verifies a single realized route: ownership of every claimed
// cell, and end-to-end connectivity through the connection's own metal.
func referenceConnection(b *board.Board, c *core.Connection, rt *core.Route, id layer.ConnID) error {
	cells := make(map[cell]struct{})
	vias := make(map[geom.Point]struct{})

	// Trace segments.
	for _, ps := range rt.Segs {
		if !ps.Seg.Stored() {
			return fmt.Errorf("segment handle on layer %d is stale (metal removed behind the route's back)", ps.Layer)
		}
		if ps.Seg.Owner != id {
			return fmt.Errorf("segment on layer %d owned by %d, want %d", ps.Layer, ps.Seg.Owner, id)
		}
		o := b.Layers[ps.Layer].Orient
		for pos := ps.Seg.Lo; pos <= ps.Seg.Hi; pos++ {
			p := b.Cfg.PointAt(o, ps.Seg.Channel(), pos)
			cells[cell{ps.Layer, p.X, p.Y}] = struct{}{}
		}
	}
	// Drilled vias connect all layers at their site.
	for _, pv := range rt.Vias {
		vias[pv.At] = struct{}{}
		for li := range b.Layers {
			cells[cell{li, pv.At.X, pv.At.Y}] = struct{}{}
		}
	}
	// Endpoint pins are plated through-holes: all layers, and they join
	// the connection's metal.
	for _, p := range []geom.Point{c.A, c.B} {
		vias[p] = struct{}{}
		for li := range b.Layers {
			if got := b.OwnerAt(li, p); got != layer.PinOwner {
				return fmt.Errorf("endpoint %v layer %d not a pin (owner %d)", p, li, got)
			}
			cells[cell{li, p.X, p.Y}] = struct{}{}
		}
	}

	// Every non-pin cell must really be owned by this connection on the
	// board (cross-check against the live channel structures).
	for cl := range cells {
		p := geom.Pt(cl.x, cl.y)
		got := b.OwnerAt(cl.layer, p)
		if got != id && got != layer.PinOwner {
			return fmt.Errorf("cell %v layer %d owned by %d on the board", p, cl.layer, got)
		}
	}

	// Flood from A across the connection's own metal.
	start := cell{0, c.A.X, c.A.Y}
	seen := map[cell]struct{}{start: {}}
	queue := []cell{start}
	reachedB := false
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.x == c.B.X && cur.y == c.B.Y {
			reachedB = true
			break
		}
		push := func(n cell) {
			if _, in := cells[n]; !in {
				return
			}
			if _, dup := seen[n]; dup {
				return
			}
			seen[n] = struct{}{}
			queue = append(queue, n)
		}
		// Same layer, 4-adjacency.
		push(cell{cur.layer, cur.x + 1, cur.y})
		push(cell{cur.layer, cur.x - 1, cur.y})
		push(cell{cur.layer, cur.x, cur.y + 1})
		push(cell{cur.layer, cur.x, cur.y - 1})
		// Across layers only through this connection's vias/pins.
		if _, isVia := vias[geom.Pt(cur.x, cur.y)]; isVia {
			for li := range b.Layers {
				push(cell{li, cur.x, cur.y})
			}
		}
	}
	if !reachedB {
		return fmt.Errorf("endpoints not connected through the route's own metal (%d cells, %d vias)",
			len(cells), len(vias))
	}
	return nil
}
