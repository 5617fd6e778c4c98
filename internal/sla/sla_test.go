package sla

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
)

// randomLayer builds a layer with random obstacles, leaving endpoints'
// cells occupied by single-cell "pins" so the touch rules apply.
func randomLayer(rng *rand.Rand, orient grid.Orientation, chans, length, obstacles int) *layer.Layer {
	l := layer.NewLayer(orient, 0, chans, length)
	for i := 0; i < obstacles; i++ {
		ch := rng.Intn(chans)
		lo := rng.Intn(length)
		hi := min(length-1, lo+rng.Intn(6))
		l.Add(ch, lo, hi, layer.ConnID(i)) // collisions silently skipped
	}
	return l
}

// occupied reports whether the grid point is used on the layer.
func occupied(cfg grid.Config, l *layer.Layer, p geom.Point) bool {
	ch, pos := cfg.ChanPos(l.Orient, p)
	return !l.Chan(ch).Free(pos)
}

// bfsReachable floods the free cells of l inside box starting from the
// touch cells of a (cells adjacent to a along its channel), returning the
// visited set.
func bfsReachable(cfg grid.Config, l *layer.Layer, a geom.Point, box geom.Rect) map[geom.Point]bool {
	box = box.Intersect(cfg.Bounds())
	seen := make(map[geom.Point]bool)
	var queue []geom.Point
	ch, pos := cfg.ChanPos(l.Orient, a)
	for _, d := range []int{-1, 1} {
		p := cfg.PointAt(l.Orient, ch, pos+d)
		if p.In(box) && !occupied(cfg, l, p) {
			seen[p] = true
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range []geom.Point{
			{X: cur.X + 1, Y: cur.Y}, {X: cur.X - 1, Y: cur.Y},
			{X: cur.X, Y: cur.Y + 1}, {X: cur.X, Y: cur.Y - 1},
		} {
			if n.In(box) && !seen[n] && !occupied(cfg, l, n) {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return seen
}

// TestTraceMatchesBFSReachability: Trace must succeed exactly when
// 4-connected BFS over the free cells links a touch cell of a to a touch
// cell of b within the box.
func TestTraceMatchesBFSReachability(t *testing.T) {
	cfg := grid.NewConfig(8, 8, 3, 2)
	rng := rand.New(rand.NewSource(11))

	for trial := 0; trial < 400; trial++ {
		orient := grid.Orientation(rng.Intn(2))
		l := randomLayer(rng, orient, cfg.ChannelCount(orient), cfg.ChannelLength(orient), rng.Intn(40))

		// Endpoints on the via grid with their cells forcibly occupied.
		a := cfg.GridOf(geom.Pt(rng.Intn(8), rng.Intn(8)))
		b := cfg.GridOf(geom.Pt(rng.Intn(8), rng.Intn(8)))
		if a == b {
			continue
		}
		for _, p := range []geom.Point{a, b} {
			ch, pos := cfg.ChanPos(orient, p)
			l.Chan(ch).Add(pos, pos, layer.PinOwner) // may already be occupied; fine
		}
		box := geom.Bounding(a, b).Expand(rng.Intn(6)).Intersect(cfg.Bounds())

		reach := bfsReachable(cfg, l, a, box)
		chB, posB := cfg.ChanPos(orient, b)
		wantOK := false
		for _, d := range []int{-1, 1} {
			p := cfg.PointAt(orient, chB, posB+d)
			if reach[p] {
				wantOK = true
			}
		}

		runs, ok := Trace(cfg, l, a, b, box)
		if ok != wantOK {
			t.Fatalf("trial %d: Trace=%v, BFS=%v (a=%v b=%v box=%v orient=%v)\n%s",
				trial, ok, wantOK, a, b, box, orient, l.Dump())
		}
		if ok {
			validateRuns(t, cfg, l, runs, a, b, box, trial)
		}
	}
}

// validateRuns checks the structural contract of a Trace result: runs in
// free space inside the box, consecutive runs in adjacent channels
// sharing a junction, first/last runs touching the endpoints.
func validateRuns(t *testing.T, cfg grid.Config, l *layer.Layer, runs []Run, a, b geom.Point, box geom.Rect, trial int) {
	t.Helper()
	if len(runs) == 0 {
		t.Fatalf("trial %d: empty run list", trial)
	}
	chans, poswin := cfg.ChanSpan(l.Orient, box)
	for i, r := range runs {
		if !chans.Contains(r.Chan) || !poswin.Contains(r.Span.Lo) || !poswin.Contains(r.Span.Hi) {
			t.Fatalf("trial %d: run %d %v outside box", trial, i, r)
		}
		for pos := r.Span.Lo; pos <= r.Span.Hi; pos++ {
			if !l.Chan(r.Chan).Free(pos) {
				t.Fatalf("trial %d: run %d covers occupied cell (%d,%d)", trial, i, r.Chan, pos)
			}
		}
		if i > 0 {
			prev := runs[i-1]
			if absInt(prev.Chan-r.Chan) != 1 {
				t.Fatalf("trial %d: runs %d,%d not in adjacent channels", trial, i-1, i)
			}
			inter := prev.Span.Intersect(r.Span)
			if inter.Len() != 1 {
				t.Fatalf("trial %d: junction overlap %v, want single point", trial, inter)
			}
		}
	}
	chA, posA := cfg.ChanPos(l.Orient, a)
	chB, posB := cfg.ChanPos(l.Orient, b)
	first, last := runs[0], runs[len(runs)-1]
	if first.Chan != chA || (!first.Span.Contains(posA-1) && !first.Span.Contains(posA+1)) {
		t.Fatalf("trial %d: first run %v does not touch a=%v", trial, first, a)
	}
	if last.Chan != chB || (!last.Span.Contains(posB-1) && !last.Span.Contains(posB+1)) {
		t.Fatalf("trial %d: last run %v does not touch b=%v", trial, last, b)
	}
}

// TestViasMatchesBFS: the Vias result must equal the set of free via
// sites covered (with an adjacent cell) by BFS-reachable free space.
func TestViasMatchesBFS(t *testing.T) {
	cfg := grid.NewConfig(8, 8, 3, 2)
	rng := rand.New(rand.NewSource(23))

	for trial := 0; trial < 400; trial++ {
		orient := grid.Orientation(rng.Intn(2))
		l := randomLayer(rng, orient, cfg.ChannelCount(orient), cfg.ChannelLength(orient), rng.Intn(40))
		a := cfg.GridOf(geom.Pt(rng.Intn(8), rng.Intn(8)))
		ch, pos := cfg.ChanPos(orient, a)
		l.Chan(ch).Add(pos, pos, layer.PinOwner)
		box := geom.Bounding(a, a).Expand(3 + rng.Intn(12)).Intersect(cfg.Bounds())

		got := append([]geom.Point(nil), Vias(cfg, l, a, box, nil)...)

		reach := bfsReachable(cfg, l, a, box)
		var want []geom.Point
		for vx := 0; vx < 8; vx++ {
			for vy := 0; vy < 8; vy++ {
				p := cfg.GridOf(geom.Pt(vx, vy))
				if !reach[p] {
					continue
				}
				// The covering interval must extend to an adjacent cell
				// along the channel for a trace to terminate there.
				c, q := cfg.ChanPos(orient, p)
				prev := cfg.PointAt(orient, c, q-1)
				next := cfg.PointAt(orient, c, q+1)
				if reach[prev] || reach[next] {
					want = append(want, p)
				}
			}
		}
		sortPoints(got)
		sortPoints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v (a=%v box=%v)\n%s", trial, got, want, a, box, l.Dump())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestViasRespectsFreePredicate(t *testing.T) {
	cfg := grid.NewConfig(6, 6, 3, 2)
	l := layer.NewLayer(grid.Vertical, 0, cfg.Width, cfg.Height)
	a := cfg.GridOf(geom.Pt(2, 2))
	ch, pos := cfg.ChanPos(grid.Vertical, a)
	l.Chan(ch).Add(pos, pos, layer.PinOwner)

	all := Vias(cfg, l, a, cfg.Bounds(), nil)
	if len(all) == 0 {
		t.Fatal("no vias on an empty layer")
	}
	banned := all[0]
	filtered := Vias(cfg, l, a, cfg.Bounds(), func(p geom.Point) bool { return p != banned })
	if len(filtered) != len(all)-1 {
		t.Fatalf("filter removed %d, want 1", len(all)-len(filtered))
	}
	for _, p := range filtered {
		if p == banned {
			t.Fatal("banned via returned")
		}
	}
}

func TestViasNeverReturnsStart(t *testing.T) {
	cfg := grid.NewConfig(6, 6, 3, 2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		orient := grid.Orientation(rng.Intn(2))
		l := randomLayer(rng, orient, cfg.ChannelCount(orient), cfg.ChannelLength(orient), rng.Intn(20))
		a := cfg.GridOf(geom.Pt(rng.Intn(6), rng.Intn(6)))
		ch, pos := cfg.ChanPos(orient, a)
		l.Chan(ch).Add(pos, pos, layer.PinOwner)
		for _, p := range Vias(cfg, l, a, cfg.Bounds(), nil) {
			if p == a {
				t.Fatalf("trial %d: Vias returned the start point", trial)
			}
		}
	}
}

func TestObstructionsFindsBlockers(t *testing.T) {
	cfg := grid.NewConfig(8, 8, 3, 2)
	l := layer.NewLayer(grid.Vertical, 0, cfg.Width, cfg.Height)

	a := cfg.GridOf(geom.Pt(3, 3)) // (9,9)
	ch, pos := cfg.ChanPos(grid.Vertical, a)
	l.Chan(ch).Add(pos, pos, layer.PinOwner)

	// Wall the point in with two connections and include one distant one.
	l.Chan(ch).Add(pos+2, pos+4, 41)  // above in the same channel
	l.Chan(ch-1).Add(pos-3, pos+3, 7) // parallel neighbor
	l.Chan(ch+4).Add(0, 5, 99)        // far away (may or may not bound free space)

	box := geom.Bounding(a, a).Expand(4).Intersect(cfg.Bounds())
	got := Obstructions(cfg, l, a, box)
	has := func(id layer.ConnID) bool {
		for _, g := range got {
			if g == id {
				return true
			}
		}
		return false
	}
	if !has(41) || !has(7) {
		t.Fatalf("Obstructions = %v, want to include 41 and 7", got)
	}
}

func TestObstructionsNeverReportsPermanent(t *testing.T) {
	cfg := grid.NewConfig(8, 8, 3, 2)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		orient := grid.Orientation(rng.Intn(2))
		l := layer.NewLayer(orient, 0, cfg.ChannelCount(orient), cfg.ChannelLength(orient))
		for i := 0; i < 30; i++ {
			ch := rng.Intn(l.NumChannels())
			lo := rng.Intn(l.ChannelLength())
			owner := layer.ConnID(rng.Intn(6)) - 3 // mixes permanent and routable
			l.Add(ch, lo, min(l.ChannelLength()-1, lo+rng.Intn(4)), owner)
		}
		a := cfg.GridOf(geom.Pt(rng.Intn(8), rng.Intn(8)))
		for _, id := range Obstructions(cfg, l, a, cfg.Bounds()) {
			if id.Permanent() {
				t.Fatalf("trial %d: permanent owner %d reported", trial, id)
			}
		}
	}
}

// TestSearcherReuse runs interleaved searches on one Searcher and
// verifies results match fresh searchers (epoch isolation).
func TestSearcherReuse(t *testing.T) {
	cfg := grid.NewConfig(8, 8, 3, 2)
	rng := rand.New(rand.NewSource(77))
	s := NewSearcher(cfg)
	for trial := 0; trial < 200; trial++ {
		orient := grid.Orientation(rng.Intn(2))
		l := randomLayer(rng, orient, cfg.ChannelCount(orient), cfg.ChannelLength(orient), rng.Intn(30))
		a := cfg.GridOf(geom.Pt(rng.Intn(8), rng.Intn(8)))
		ch, pos := cfg.ChanPos(orient, a)
		l.Chan(ch).Add(pos, pos, layer.PinOwner)

		got := append([]geom.Point(nil), s.Vias(l, a, cfg.Bounds(), nil)...)
		want := Vias(cfg, l, a, cfg.Bounds(), nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: reused searcher drifted: %v vs %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: reused searcher drifted at %d", trial, i)
			}
		}
	}
}

func TestTraceDegenerate(t *testing.T) {
	cfg := grid.NewConfig(4, 4, 3, 2)
	l := layer.NewLayer(grid.Vertical, 0, cfg.Width, cfg.Height)
	a := geom.Pt(3, 3)
	if _, ok := Trace(cfg, l, a, a, cfg.Bounds()); ok {
		t.Error("Trace(a,a) should fail")
	}
	// Box not containing the endpoints.
	if _, ok := Trace(cfg, l, geom.Pt(0, 0), geom.Pt(9, 9), geom.R(3, 3, 6, 6)); ok {
		t.Error("Trace outside box should fail")
	}
}

func sortPoints(ps []geom.Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
}

// TestTraceStraightLine checks the canonical simple case produces one
// straight run between adjacent-channel touch points.
func TestTraceStraightLine(t *testing.T) {
	cfg := grid.NewConfig(8, 8, 3, 2)
	l := layer.NewLayer(grid.Horizontal, 0, cfg.Height, cfg.Width)
	a, b := geom.Pt(3, 6), geom.Pt(18, 6) // same row, 5 via units apart
	for _, p := range []geom.Point{a, b} {
		ch, pos := cfg.ChanPos(grid.Horizontal, p)
		l.Chan(ch).Add(pos, pos, layer.PinOwner)
	}
	runs, ok := Trace(cfg, l, a, b, geom.Bounding(a, b).Expand(3))
	if !ok {
		t.Fatal("straight trace failed")
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1: %v", len(runs), runs)
	}
	if runs[0].Chan != 6 || runs[0].Span != geom.Iv(4, 17) {
		t.Errorf("run = %+v, want channel 6 span [4..17]", runs[0])
	}
}
