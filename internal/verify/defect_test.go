package verify

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
	"repro/internal/workload"
)

// defect is one class of fault planted in a routed connection, either in
// its route record or in its metal on the board.
type defect uint8

const (
	dropSeg defect = iota // drop a segment from Route.Segs
	shrink                // shrink a segment by one cell at one end
	relayer               // name another layer of the same orientation
	steal                 // replace a segment's metal with a foreign owner's
	dropVia               // drop a via from Route.Vias
	cutVia                // remove a via's metal on one layer
	numDefects
)

func (d defect) String() string {
	return [...]string{"drop-segment", "shrink", "relayer", "steal", "drop-via", "cut-via"}[d]
}

// foreign owns the metal a steal plants; no router hands out this ID.
const foreign layer.ConnID = 1 << 30

// positions returns how many faults of class d rt admits; plant takes a
// position below it.
func (d defect) positions(b *board.Board, rt *core.Route) int {
	switch d {
	case dropSeg, steal:
		return len(rt.Segs)
	case shrink:
		return 2 * len(rt.Segs)
	case relayer:
		return len(rt.Segs) * len(b.Layers)
	case dropVia:
		return len(rt.Vias)
	case cutVia:
		return len(rt.Vias) * len(b.Layers)
	}
	return 0
}

// plant applies fault pos of class d to the connection owning id. It
// returns the function that puts the record and the board back, or
// false when the position names no fault (a unit segment cannot shrink;
// a relayer must name another layer of the same orientation).
func plant(b *board.Board, rt *core.Route, id layer.ConnID, d defect, pos int) (restore func(), ok bool) {
	switch d {
	case dropSeg:
		saved := rt.Segs
		rt.Segs = slices.Delete(slices.Clone(saved), pos, pos+1)
		return func() { rt.Segs = saved }, true
	case dropVia:
		saved := rt.Vias
		rt.Vias = slices.Delete(slices.Clone(saved), pos, pos+1)
		return func() { rt.Vias = saved }, true
	case relayer:
		ps := &rt.Segs[pos/len(b.Layers)]
		li, to := ps.Layer, pos%len(b.Layers)
		if to == li || b.Layers[to].Orient != b.Layers[li].Orient {
			return nil, false
		}
		ps.Layer = to
		return func() { ps.Layer = li }, true
	case shrink:
		ps := &rt.Segs[pos/2]
		lo, hi := ps.Seg.Lo, ps.Seg.Hi
		if lo == hi {
			return nil, false
		}
		if pos%2 == 0 {
			lo++
		} else {
			hi--
		}
		planted, restore := swapMetal(b, ps, lo, hi, id, id)
		ps.Seg = planted
		return restore, true
	case steal:
		// The record keeps its stale handle, as after a real theft.
		ps := &rt.Segs[pos]
		_, restore := swapMetal(b, ps, ps.Seg.Lo, ps.Seg.Hi, foreign, id)
		return restore, true
	case cutVia:
		pv := rt.Vias[pos/len(b.Layers)]
		li := pos % len(b.Layers)
		ch, at := b.Cfg.ChanPos(b.Layers[li].Orient, pv.At)
		b.RemoveSegment(li, pv.Segs[li])
		return func() { pv.Segs[li] = b.AddSegment(li, ch, at, at, id) }, true
	}
	panic(fmt.Sprintf("unknown defect %d", d))
}

// swapMetal replaces the board metal of ps with positions lo..hi of the
// same channel, owned by owner. It returns the planted segment and the
// function that puts the original interval back under the record, owned
// by the connection id.
func swapMetal(b *board.Board, ps *core.PlacedSeg, lo, hi int, owner, id layer.ConnID) (*layer.Segment, func()) {
	ch, olo, ohi := ps.Seg.Channel(), ps.Seg.Lo, ps.Seg.Hi
	b.RemoveSegment(ps.Layer, ps.Seg)
	planted := b.AddSegment(ps.Layer, ch, lo, hi, owner)
	return planted, func() {
		b.RemoveSegment(ps.Layer, planted)
		ps.Seg = b.AddSegment(ps.Layer, ch, olo, ohi, id)
	}
}

// verdicts tallies how often each defect class was accepted and rejected.
type verdicts [numDefects][2]int // [class][0 accepted, 1 rejected]

// checkAgainstReference plants fault pos of class d in connection i,
// requires Connection and the cell-flood reference to agree on it, and
// restores the board. A position that names no fault is skipped.
func checkAgainstReference(t *testing.T, b *board.Board, r *core.Router, i int, d defect, pos int, tally *verdicts) {
	t.Helper()
	rt := r.RouteOf(i)
	id := layer.ConnID(i + r.Opts.IDBase)
	restore, ok := plant(b, rt, id, d, pos)
	if !ok {
		return
	}
	got := Connection(b, &r.Conns[i], rt, id)
	want := referenceConnection(b, &r.Conns[i], rt, id)
	restore()
	if (got == nil) != (want == nil) {
		t.Errorf("connection %d (%s), %s at %d: Connection says %v, reference says %v",
			i, rt.Method, d, pos, got, want)
	}
	if tally != nil {
		rejected := 0
		if got != nil {
			rejected = 1
		}
		tally[d][rejected]++
	}
}

// routedConns lists the connections whose routes carry metal.
func routedConns(r *core.Router) []int {
	var out []int
	for i := range r.Conns {
		switch r.RouteOf(i).Method {
		case core.NotRouted, core.Trivial:
			continue
		}
		out = append(out, i)
	}
	return out
}

// TestMatchesReference routes the nine Table 1 boards at a third of full
// size and plants every fault of every class in every routed
// connection, one at a time. The segment oracle must give the cell
// flood's verdict each time. The shrink, drop-segment and drop-via
// classes must each be seen accepted and rejected: a shrunk end or a
// dropped piece is sometimes redundant metal, and that is the case a
// connectivity shortcut would get wrong.
func TestMatchesReference(t *testing.T) {
	var tally verdicts
	for _, spec := range workload.Table1Specs() {
		run, err := experiment.RouteSpec(spec.Scale(3), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, r := run.Board, run.Router
		before := b.Fingerprint()
		for _, i := range routedConns(r) {
			for d := range numDefects {
				for pos := range d.positions(b, r.RouteOf(i)) {
					checkAgainstReference(t, b, r, i, d, pos, &tally)
				}
			}
		}
		if b.Fingerprint() != before {
			t.Fatalf("%s: planting and restoring faults changed the board", spec.Name)
		}
		if err := Routed(b, r); err != nil {
			t.Fatalf("%s: restored board rejected: %v", spec.Name, err)
		}
	}
	for d := range numDefects {
		t.Logf("%-12s accepted %5d, rejected %5d", d, tally[d][0], tally[d][1])
	}
	for _, d := range []defect{shrink, dropSeg, dropVia} {
		if tally[d][0] == 0 || tally[d][1] == 0 {
			t.Errorf("%s: accepted %d, rejected %d; want both verdicts seen", d, tally[d][0], tally[d][1])
		}
	}
}

// TestSitesTouch joins pieces that no trace joins: two pins with a via
// on the cell between them. Routed boards have no such route, since
// their vias sit a pitch apart, but a pitch of 1 or an off-grid pin
// allows it, and the cell flood accepts it. Dropping the via must
// disconnect the pins for both oracles.
func TestSitesTouch(t *testing.T) {
	b, err := board.New(grid.NewConfig(6, 6, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	a, c := geom.Pt(1, 1), geom.Pt(3, 1)
	if err := b.PlacePin(a); err != nil {
		t.Fatal(err)
	}
	if err := b.PlacePin(c); err != nil {
		t.Fatal(err)
	}
	pv, ok := b.PlaceVia(geom.Pt(2, 1), 0)
	if !ok {
		t.Fatal("via not placed")
	}
	conn := core.Connection{A: a, B: c}
	rt := &core.Route{Method: core.OneVia, Vias: []board.PlacedVia{pv}}
	if err := Connection(b, &conn, rt, 0); err != nil {
		t.Errorf("pins joined by a via rejected: %v", err)
	}
	if err := referenceConnection(b, &conn, rt, 0); err != nil {
		t.Errorf("reference rejects pins joined by a via: %v", err)
	}
	rt.Vias = nil
	if Connection(b, &conn, rt, 0) == nil || referenceConnection(b, &conn, rt, 0) == nil {
		t.Error("pins a cell apart accepted without the via between them")
	}
}

// FuzzConnection plants one fault in one connection of a routed
// workload.TinySpec board and requires the segment oracle and the cell
// flood to agree on it. TinySpec has one layer per orientation, so the
// relayer class plants nothing here; TestMatchesReference covers it.
func FuzzConnection(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, pick uint16, kind uint8, pos uint16) {
		run, err := experiment.RouteSpec(workload.TinySpec(seed), core.DefaultOptions())
		if err != nil {
			return // a seed whose board cannot be generated tests nothing
		}
		b, r := run.Board, run.Router
		conns := routedConns(r)
		if len(conns) == 0 {
			return
		}
		i := conns[int(pick)%len(conns)]
		d := defect(kind % uint8(numDefects))
		if n := d.positions(b, r.RouteOf(i)); n > 0 {
			checkAgainstReference(t, b, r, i, d, int(pos)%n, nil)
		}
	})
}
