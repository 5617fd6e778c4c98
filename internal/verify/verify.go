// Package verify audits routed boards, independently of the router's own
// bookkeeping: every routed connection must be electrically realized.
// The connection's own metal (trace segments, drilled vias, endpoint
// pins) must connect its two endpoints under 4-adjacency within a layer
// and via adjacency across layers, and no grid cell may be owned by two
// different connections. grr runs it on every route it writes (-check,
// on by default), and so do perfbench's table1 and eco workloads, the
// example programs and the integration tests.
//
// The oracle works on a route's stored segments, not on its cells
// (DESIGN §6.1). One channel probe per segment proves ownership, and a
// union-find over the segments and the via and pin sites proves
// connectivity. It reads only the board and the route records; it calls
// nothing that produced the route.
package verify

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layer"
)

// Routed checks every non-failed connection of the router. It returns the
// first problem found, or nil.
func Routed(b *board.Board, r *core.Router) error {
	if err := b.Audit(); err != nil {
		return err
	}
	var s scratch
	for i := range r.Conns {
		rt := r.RouteOf(i)
		switch rt.Method {
		case core.NotRouted, core.Trivial:
			continue
		}
		if err := s.check(b, &r.Conns[i], rt, layer.ConnID(i+r.Opts.IDBase)); err != nil {
			return fmt.Errorf("connection %d (%s %v-%v, %s): %w",
				i, r.Conns[i].Net, r.Conns[i].A, r.Conns[i].B, rt.Method, err)
		}
	}
	return nil
}

// Connection verifies a single realized route: ownership of every claimed
// cell, and end-to-end connectivity through the connection's own metal.
func Connection(b *board.Board, c *core.Connection, rt *core.Route, id layer.ConnID) error {
	var s scratch
	return s.check(b, c, rt, id)
}

// run is one trace segment of a route: positions lo..hi of channel ch
// on one layer.
type run struct{ layer, ch, lo, hi int }

// scratch holds one connection's pieces and their union-find forest.
// The pieces are the route's runs followed by its sites: endpoint A,
// endpoint B, then each via. A site is a plated hole, metal on every
// layer, so it is one piece on all of them. Routed reuses one scratch
// for every connection, so a board costs a few allocations in all.
type scratch struct {
	runs   []run
	sites  []geom.Point
	parent []int32
}

// check verifies one route, as Connection does, in s's buffers.
func (s *scratch) check(b *board.Board, c *core.Connection, rt *core.Route, id layer.ConnID) error {
	s.runs, s.sites = s.runs[:0], s.sites[:0]
	for _, ps := range rt.Segs {
		seg := ps.Seg
		if !seg.Stored() {
			return fmt.Errorf("segment handle on layer %d is stale (metal removed behind the route's back)", ps.Layer)
		}
		if seg.Owner != id {
			return fmt.Errorf("segment on layer %d owned by %d, want %d", ps.Layer, seg.Owner, id)
		}
		// A stored segment owns every cell it covers in its own channel,
		// so one probe proves the claim on the whole run. Only a record
		// that names another layer than the segment's own needs the cells
		// of the named layer checked one by one: that layer may carry the
		// connection's metal there too.
		if b.Layers[ps.Layer].Chan(seg.Channel()).SegmentAt(seg.Lo) != seg {
			if err := ownsCells(b, ps.Layer, seg, id); err != nil {
				return err
			}
		}
		s.runs = append(s.runs, run{ps.Layer, seg.Channel(), seg.Lo, seg.Hi})
	}
	// Endpoint pins are plated through-holes: all layers, and they join
	// the connection's metal.
	for _, p := range [2]geom.Point{c.A, c.B} {
		for li := range b.Layers {
			if got := b.OwnerAt(li, p); got != layer.PinOwner {
				return fmt.Errorf("endpoint %v layer %d not a pin (owner %d)", p, li, got)
			}
		}
		s.sites = append(s.sites, p)
	}
	// Drilled vias connect all layers at their site.
	for _, pv := range rt.Vias {
		for li := range b.Layers {
			if got := b.OwnerAt(li, pv.At); got != id && got != layer.PinOwner {
				return fmt.Errorf("cell %v layer %d owned by %d on the board", pv.At, li, got)
			}
		}
		s.sites = append(s.sites, pv.At)
	}
	if !s.connected(b) {
		cells := len(s.sites) * len(b.Layers)
		for _, r := range s.runs {
			cells += r.hi - r.lo + 1
		}
		return fmt.Errorf("endpoints not connected through the route's own metal (%d cells, %d vias)",
			cells, len(s.sites))
	}
	return nil
}

// ownsCells checks that the connection, or a pin, owns every cell that
// seg covers on layer li, the layer the route names.
func ownsCells(b *board.Board, li int, seg *layer.Segment, id layer.ConnID) error {
	o := b.Layers[li].Orient
	for pos := seg.Lo; pos <= seg.Hi; pos++ {
		p := b.Cfg.PointAt(o, seg.Channel(), pos)
		if got := b.OwnerAt(li, p); got != id && got != layer.PinOwner {
			return fmt.Errorf("cell %v layer %d owned by %d on the board", p, li, got)
		}
	}
	return nil
}

// connected joins every two pieces that share a cell or hold 4-adjacent
// cells on a layer, and reports whether endpoint A's piece and endpoint
// B's ended in one set. This is the cell flood's adjacency applied to
// whole runs, so it accepts exactly the routes a flood accepts.
func (s *scratch) connected(b *board.Board) bool {
	n := len(s.runs) + len(s.sites)
	s.parent = s.parent[:0]
	for i := range n {
		s.parent = append(s.parent, int32(i))
	}
	for i, p := range s.runs {
		for j := i + 1; j < len(s.runs); j++ {
			if q := s.runs[j]; q.layer == p.layer && touches(p, q) {
				s.union(i, j)
			}
		}
		o := b.Layers[p.layer].Orient
		for k, at := range s.sites {
			ch, pos := b.Cfg.ChanPos(o, at)
			if touches(p, run{p.layer, ch, pos, pos}) {
				s.union(i, len(s.runs)+k)
			}
		}
	}
	// Two sites are metal on every layer, so they touch wherever they
	// are grid neighbours.
	for k, p := range s.sites {
		for m := k + 1; m < len(s.sites); m++ {
			if p.ManhattanDist(s.sites[m]) <= 1 {
				s.union(len(s.runs)+k, len(s.runs)+m)
			}
		}
	}
	return s.find(len(s.runs)) == s.find(len(s.runs)+1)
}

// touches reports whether two runs of one layer share a cell or hold
// 4-adjacent cells: in one channel they overlap or meet end to end, in
// neighbouring channels they overlap.
func touches(p, q run) bool {
	switch p.ch - q.ch {
	case 0:
		return p.lo <= q.hi+1 && q.lo <= p.hi+1
	case 1, -1:
		return p.lo <= q.hi && q.lo <= p.hi
	}
	return false
}

func (s *scratch) find(i int) int32 {
	x := int32(i)
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]] // path halving
		x = s.parent[x]
	}
	return x
}

func (s *scratch) union(i, j int) {
	if ri, rj := s.find(i), s.find(j); ri != rj {
		s.parent[max(ri, rj)] = min(ri, rj)
	}
}
