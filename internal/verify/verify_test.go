package verify

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
	"repro/internal/workload"
)

// routedPair builds and routes one straight connection.
func routedPair(t *testing.T) (*board.Board, *core.Router) {
	t.Helper()
	b, err := board.New(grid.NewConfig(14, 14, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := b.Cfg.GridOf(geom.Pt(2, 6))
	c := b.Cfg.GridOf(geom.Pt(11, 6))
	if err := b.PlacePin(a); err != nil {
		t.Fatal(err)
	}
	if err := b.PlacePin(c); err != nil {
		t.Fatal(err)
	}
	r, err := core.New(b, []core.Connection{{A: a, B: c}}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Route(); !res.Complete() {
		t.Fatal("routing failed")
	}
	return b, r
}

func TestRoutedAcceptsGoodBoard(t *testing.T) {
	b, r := routedPair(t)
	if err := Routed(b, r); err != nil {
		t.Fatalf("clean board rejected: %v", err)
	}
}

func TestDetectsSeveredTrace(t *testing.T) {
	b, r := routedPair(t)
	// Remove one trace segment behind the verifier's back: the
	// connection is no longer electrically continuous.
	rt := r.RouteOf(0)
	if len(rt.Segs) == 0 {
		t.Fatal("no segments to sever")
	}
	ps := rt.Segs[0]
	b.RemoveSegment(ps.Layer, ps.Seg)
	err := Routed(b, r)
	if err == nil {
		t.Fatal("severed trace not detected")
	}
	// Either the ownership check or the connectivity flood must trip.
	if !strings.Contains(err.Error(), "connection 0") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestDetectsStolenCell(t *testing.T) {
	b, r := routedPair(t)
	rt := r.RouteOf(0)
	ps := rt.Segs[0]
	ch, lo, hi := ps.Seg.Channel(), ps.Seg.Lo, ps.Seg.Hi
	// Replace the segment with one owned by someone else.
	b.RemoveSegment(ps.Layer, ps.Seg)
	if b.AddSegment(ps.Layer, ch, lo, hi, 99) == nil {
		t.Fatal("re-add failed")
	}
	if err := Routed(b, r); err == nil {
		t.Fatal("foreign ownership not detected")
	}
}

func TestDetectsMissingEndpointPin(t *testing.T) {
	b, err := board.New(grid.NewConfig(10, 10, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := b.Cfg.GridOf(geom.Pt(1, 1))
	c := b.Cfg.GridOf(geom.Pt(7, 7))
	if err := b.PlacePin(a); err != nil {
		t.Fatal(err)
	}
	if err := b.PlacePin(c); err != nil {
		t.Fatal(err)
	}
	conn := core.Connection{A: a, B: c}
	// Fabricate a claimed route with no metal at all.
	rt := &core.Route{Method: core.ZeroVia}
	if err := Connection(b, &conn, rt, layer.ConnID(0)); err == nil {
		t.Fatal("empty realization accepted")
	}
}

func TestTrivialAndUnroutedSkipped(t *testing.T) {
	b, err := board.New(grid.NewConfig(10, 10, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := b.Cfg.GridOf(geom.Pt(1, 1))
	c := b.Cfg.GridOf(geom.Pt(7, 7))
	if err := b.PlacePin(a); err != nil {
		t.Fatal(err)
	}
	if err := b.PlacePin(c); err != nil {
		t.Fatal(err)
	}
	r, err := core.New(b, []core.Connection{{A: a, B: a}, {A: a, B: c}}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Route only partially: the trivial connection routes, the other is
	// left unrouted by never calling Route. Routed() must not complain
	// about either.
	if err := Routed(b, r); err != nil {
		t.Fatalf("unroutable states should be skipped: %v", err)
	}
}

func TestDetectsViaMapDrift(t *testing.T) {
	b, r := routedPair(t)
	b.Vias.Inc(geom.Pt(0, 0))
	if err := Routed(b, r); err == nil {
		t.Fatal("via-map drift not detected")
	}
}

// routedL builds and routes one L-shaped connection on a two-layer
// board: one layer per orientation, so the route needs exactly one via.
func routedL(t *testing.T) (*board.Board, *core.Router) {
	t.Helper()
	b, err := board.New(grid.NewConfig(10, 10, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := b.Cfg.GridOf(geom.Pt(2, 2))
	c := b.Cfg.GridOf(geom.Pt(7, 7))
	if err := b.PlacePin(a); err != nil {
		t.Fatal(err)
	}
	if err := b.PlacePin(c); err != nil {
		t.Fatal(err)
	}
	r, err := core.New(b, []core.Connection{{A: a, B: c}}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res := r.Route(); !res.Complete() {
		t.Fatal("routing failed")
	}
	if n := len(r.RouteOf(0).Vias); n != 1 {
		t.Fatalf("L-shaped route drilled %d vias, want 1", n)
	}
	if err := Routed(b, r); err != nil {
		t.Fatalf("clean board rejected: %v", err)
	}
	return b, r
}

func TestDetectsMissingVia(t *testing.T) {
	t.Run("dropped from the route", func(t *testing.T) {
		b, r := routedL(t)
		// The via's metal stays on the board, but the route no longer
		// claims it: nothing joins the two layers.
		r.RouteOf(0).Vias = nil
		err := Routed(b, r)
		if err == nil {
			t.Fatal("route without its via accepted")
		}
		if !strings.Contains(err.Error(), "connection 0") {
			t.Errorf("unhelpful error: %v", err)
		}
	})
	for li := 0; li < 2; li++ {
		t.Run(fmt.Sprintf("metal cut on layer %d", li), func(t *testing.T) {
			b, r := routedL(t)
			b.RemoveSegment(li, r.RouteOf(0).Vias[0].Segs[li])
			err := Routed(b, r)
			if err == nil {
				t.Fatal("via with a missing layer accepted")
			}
			if !strings.Contains(err.Error(), "connection 0") {
				t.Errorf("unhelpful error: %v", err)
			}
		})
	}
}

// routedSpec generates, strings and routes one workload board.
func routedSpec(tb testing.TB, spec workload.Spec) (*board.Board, *core.Router) {
	tb.Helper()
	run, err := experiment.RouteSpec(spec, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	if err := Routed(run.Board, run.Router); err != nil {
		tb.Fatalf("%s: %v", spec.Name, err)
	}
	return run.Board, run.Router
}

// TestRoutedAllocs bounds what checking a whole board allocates: the
// audit's via map and one scratch, grown once and reused for every
// connection. The count must not grow with the number of connections,
// so a tiny board and a third-size coproc board (hundreds of
// connections) share one budget.
func TestRoutedAllocs(t *testing.T) {
	coproc, _ := workload.Table1Spec("coproc")
	for _, spec := range []workload.Spec{workload.TinySpec(1), coproc.Scale(3)} {
		b, r := routedSpec(t, spec)
		allocs := testing.AllocsPerRun(5, func() {
			if err := Routed(b, r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%s: Routed allocated %.0f objects for %d connections, want at most 32",
				spec.Name, allocs, len(r.Conns))
		}
		t.Logf("%s: %.0f allocs for %d connections", spec.Name, allocs, len(r.Conns))
	}
}

// BenchmarkRouted checks the nine Table 1 boards at a third of full
// size, routed once up front: one op verifies all nine.
func BenchmarkRouted(b *testing.B) {
	type routedBoard struct {
		b *board.Board
		r *core.Router
	}
	var boards []routedBoard
	for _, spec := range workload.Table1Specs() {
		bd, r := routedSpec(b, spec.Scale(3))
		boards = append(boards, routedBoard{bd, r})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, rb := range boards {
			if err := Routed(rb.b, rb.r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
