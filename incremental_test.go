package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/stringer"
	"repro/internal/workload"
)

// chainFingerprint is routeFingerprint over a bare router: every placed
// segment and via of every connection in canonical order.
func chainFingerprint(r *core.Router) string {
	var sb strings.Builder
	for i := range r.Conns {
		rt := r.RouteOf(i)
		fmt.Fprintf(&sb, "conn %d method %v\n", i, rt.Method)
		for _, ps := range rt.Segs {
			fmt.Fprintf(&sb, "  seg L%d ch%d %v\n", ps.Layer, ps.Seg.Channel(), ps.Seg.Interval())
		}
		for _, pv := range rt.Vias {
			fmt.Fprintf(&sb, "  via %v\n", pv.At)
		}
	}
	return sb.String()
}

// rectFree reports whether every grid point of r is free on every layer.
func rectFree(b *board.Board, r geom.Rect) bool {
	for li := 0; li < b.NumLayers(); li++ {
		for y := r.MinY; y <= r.MaxY; y++ {
			for x := r.MinX; x <= r.MaxX; x++ {
				if !b.FreeAt(li, geom.Pt(x, y)) {
					return false
				}
			}
		}
	}
	return true
}

// findFreeRect scans outward from the (fx, fy) fractional board
// position for a w×h rectangle that is metal-free on the given board,
// so PlaceKeepout succeeds.
func findFreeRect(b *board.Board, fx, fy float64, w, h int) (geom.Rect, bool) {
	bounds := b.Cfg.Bounds()
	cx := bounds.MinX + int(fx*float64(bounds.MaxX-bounds.MinX))
	cy := bounds.MinY + int(fy*float64(bounds.MaxY-bounds.MinY))
	try := func(dx, dy int) (geom.Rect, bool) {
		r := geom.R(cx+dx*2, cy+dy*2, cx+dx*2+w-1, cy+dy*2+h-1)
		return r, bounds.Contains(r) && rectFree(b, r)
	}
	for ring := 0; ring < 300; ring++ {
		for d := -ring; d <= ring; d++ {
			for _, cand := range [][2]int{{d, ring}, {d, -ring}, {ring, d}, {-ring, d}} {
				if r, ok := try(cand[0], cand[1]); ok {
					return r, true
				}
			}
		}
	}
	return geom.Rect{}, false
}

// incrementalFixture is the shared scenario: a routed Table 1 board, a
// three-part edit (keepout, net removal, connection re-add), the edited
// board builder, and the from-scratch oracle on the edited design.
type incrementalFixture struct {
	base     *experiment.Run
	edits    []core.Edit
	conns2   []core.Connection
	opts     core.Options
	newBoard func(t *testing.T) *board.Board
	oracle   *core.Router
}

func buildIncrementalFixture(t *testing.T, spec workload.Spec, engine core.Engine, kx, ky float64) *incrementalFixture {
	t.Helper()
	d, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Engine = engine

	base, err := experiment.RouteDesign(d, opts, stringer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.Metrics.Routed == 0 {
		t.Fatal("degenerate fixture: nothing routed")
	}

	// The keepout: a small rectangle near the requested position that is
	// metal-free on the *routed* base board. No existing route crossed
	// it, so it models the realistic edit — reserving space that is
	// actually available — rather than one that severs live routes.
	block, ok := findFreeRect(base.Board, kx, ky, 6, 6)
	if !ok {
		t.Fatal("no free rectangle for the keepout edit")
	}

	// The removed net: the net of the shortest non-trivial connection —
	// a local edit rather than a board-spanning bus corridor. The
	// connection is immediately re-added under a new net name, exercising
	// both the removal and addition paths on pins that certainly exist.
	conns := base.Strung.Conns
	var removed core.Connection
	found := false
	for _, c := range conns {
		if c.A == c.B {
			continue
		}
		if !found || c.A.ManhattanDist(c.B) < removed.A.ManhattanDist(removed.B) {
			removed, found = c, true
		}
	}
	if !found {
		t.Fatal("no non-trivial connection to remove")
	}
	edits := []core.Edit{
		{Op: core.EditBlock, Rect: block},
		{Op: core.EditRemoveNet, Net: removed.Net},
		{Op: core.EditAddConn, Conn: core.Connection{
			A: removed.A, B: removed.B, Net: removed.Net + "_moved", Class: removed.Class,
		}},
	}

	newBoard := func(t *testing.T) *board.Board {
		t.Helper()
		b, err := board.New(d.GridConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PlacePins(b); err != nil {
			t.Fatal(err)
		}
		if err := b.PlaceKeepout(block); err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The oracle: the edited design routed from scratch.
	conns2 := core.EditConns(conns, edits)
	ob := newBoard(t)
	or, err := core.New(ob, conns2, opts)
	if err != nil {
		t.Fatal(err)
	}
	ores := or.Route()
	if ores.Aborted != core.AbortNone {
		t.Fatalf("oracle run aborted: %v (%v)", ores.Aborted, ores.Invariant)
	}
	if err := ob.Audit(); err != nil {
		t.Fatalf("oracle board fails audit: %v", err)
	}
	return &incrementalFixture{
		base: base, edits: edits, conns2: conns2, opts: opts,
		newBoard: newBoard, oracle: or,
	}
}

// checkAgainstOracle demands the edited board be indistinguishable
// from the from-scratch oracle: audit-clean, equal board fingerprint,
// and an identical segment/via chain for every connection.
func (fx *incrementalFixture) checkAgainstOracle(t *testing.T, b *board.Board, r *core.Router) {
	t.Helper()
	if err := b.Audit(); err != nil {
		t.Errorf("edited board fails audit: %v", err)
	}
	if got, want := b.Fingerprint(), fx.oracle.B.Fingerprint(); got != want {
		t.Errorf("edited board fingerprint %016x, want %016x (differs from from-scratch route)", got, want)
	}
	if got, want := chainFingerprint(r), chainFingerprint(fx.oracle); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("route chains diverge at line %d:\n edited: %s\n oracle: %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("route chains differ in length: %d vs %d lines", len(gl), len(wl))
	}
}

// TestIncrementalRerouteEquivalence routes a scaled Table 1 board, edits
// the design (new keepout, one net removed, one connection re-added),
// and routes the edit with Reroute. The edited board must match a
// from-scratch route of the edited design exactly.
func TestIncrementalRerouteEquivalence(t *testing.T) {
	for _, engine := range []core.Engine{core.EngineClassic, core.EngineGoal} {
		t.Run(engine.String(), func(t *testing.T) {
			fx := buildIncrementalFixture(t, workload.Table1Specs()[3].Scale(3), engine, 0.5, 0.5)

			b2 := fx.newBoard(t)
			nr, err := fx.base.Router.Reroute(b2, fx.edits, nil)
			if err != nil {
				t.Fatal(err)
			}
			res := nr.Route()
			if res.Aborted != core.AbortNone {
				t.Fatalf("edited run aborted: %v (%v)", res.Aborted, res.Invariant)
			}
			fx.checkAgainstOracle(t, b2, nr)
		})
	}
}

// TestIncrementalRerouteResume cuts a checkpoint partway through the
// route of an edit and resumes it on a fresh edited board: both the
// uninterrupted and the resumed run must land on the from-scratch
// oracle's board.
func TestIncrementalRerouteResume(t *testing.T) {
	fx := buildIncrementalFixture(t, workload.Table1Specs()[3].Scale(3), core.EngineClassic, 0.5, 0.5)

	var mid *core.Checkpoint
	cut := len(fx.conns2) / 2
	seen := 0
	b2 := fx.newBoard(t)
	nr, err := fx.base.Router.Reroute(b2, fx.edits, func(o *core.Options) {
		o.CheckpointEvery = 1
		o.CheckpointSink = func(cp *core.Checkpoint) error {
			if seen++; seen == cut {
				mid = cp
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := nr.Route(); res.Aborted != core.AbortNone {
		t.Fatalf("edited run aborted: %v (%v)", res.Aborted, res.Invariant)
	}
	fx.checkAgainstOracle(t, b2, nr)
	if mid == nil {
		t.Fatalf("edited run finished before %d checkpoints were cut", cut)
	}

	b3 := fx.newBoard(t)
	opts := fx.opts
	rr, err := core.Resume(b3, fx.conns2, opts, mid)
	if err != nil {
		t.Fatal(err)
	}
	if res := rr.Route(); res.Aborted != core.AbortNone {
		t.Fatalf("resumed run aborted: %v (%v)", res.Aborted, res.Invariant)
	}
	fx.checkAgainstOracle(t, b3, rr)
}
