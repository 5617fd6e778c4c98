package core

import (
	"testing"

	"repro/internal/board"
	"repro/internal/geom"
	"repro/internal/layer"
	"repro/internal/obs"
)

// wallOff rings grid point c with permanent keepout on every layer so no
// trace can reach the cell beside it.
func wallOff(tb testing.TB, b *board.Board, c geom.Point) {
	tb.Helper()
	for li := range b.Layers {
		o := b.Layers[li].Orient
		for dx := -2; dx <= 2; dx++ {
			for dy := -2; dy <= 2; dy++ {
				if dx == 0 && dy == 0 {
					continue
				}
				p := c.Add(geom.Pt(dx, dy))
				ch, pos := b.Cfg.ChanPos(o, p)
				b.AddSegment(li, ch, pos, pos, layer.KeepoutOwner)
			}
		}
	}
}

// TestLeeSteadyStateAllocs pins down the zero-allocation property of the
// scratch-backed engine: once the scratch's dense store, heaps and maps
// have grown to the search's working size, a full Lee flood must not
// allocate per expanded node. The board walls off the target with
// permanent keepout so the wavefront exhausts the whole board and the
// search fails without mutating any channel — every run after the first
// is a bit-identical steady-state replay.
//
// The "instrumented" variant runs the identical flood with an
// obs.Registry armed and holds it to the same allocation budget: phase
// timing is two clock reads bracketing the search, and metric flushing
// happens outside it, so observability must be free on the hot path.
// The "goal" variant floods under EngineGoal: the lower-bound index is
// consulted on every via candidate, so its query path — ensure, the
// prefix counts, the radius window — must be allocation-free too.
func TestLeeSteadyStateAllocs(t *testing.T) {
	t.Run("bare", func(t *testing.T) { leeSteadyStateAllocs(t, nil, EngineClassic) })
	t.Run("instrumented", func(t *testing.T) { leeSteadyStateAllocs(t, obs.NewRegistry(), EngineClassic) })
	t.Run("goal", func(t *testing.T) { leeSteadyStateAllocs(t, nil, EngineGoal) })
}

func leeSteadyStateAllocs(t *testing.T, reg *obs.Registry, engine Engine) {
	b := emptyBoard(t, 40, 40, 2)
	a := pinAt(t, b, geom.Pt(2, 2))
	c := pinAt(t, b, geom.Pt(35, 35))
	wallOff(t, b, c)
	opts := DefaultOptions()
	opts.Bidirectional = false // one wavefront floods the entire board
	opts.CostCapFactor = 0     // never abandon early
	opts.Escalate = false
	opts.Metrics = reg
	opts.Engine = engine
	r := mustRouter(t, b, []Connection{{A: a, B: c}}, opts)
	id := r.connID(0)

	// Warm up: the first flood grows the heap backing arrays and map
	// buckets to their high-water marks.
	if _, _, ok := r.leePts(a, c, id); ok {
		t.Fatal("route through a solid wall — the wall helper is broken")
	}
	before := r.Metrics().LeeExpansions
	if _, _, ok := r.leePts(a, c, id); ok {
		t.Fatal("route through a solid wall")
	}
	perRun := r.Metrics().LeeExpansions - before
	if perRun < 500 {
		t.Fatalf("only %d expansions per flood; the board is too small to measure steady state", perRun)
	}

	allocs := testing.AllocsPerRun(5, func() {
		r.leePts(a, c, id)
	})
	// A handful of fixed per-search allocations are tolerable; anything
	// scaling with the ~thousands of expanded nodes is a regression.
	if allocs > 8 {
		t.Errorf("leePts allocated %.0f objects per flood (%d expansions); want O(1), got %.4f allocs/expansion",
			allocs, perRun, allocs/float64(perRun))
	}
	if reg != nil {
		// The instrumented flood must also have timed itself: every
		// leePts call lands one Lee-phase observation.
		h := reg.Histogram(`grr_router_phase_seconds{phase="lee"}`, obs.DurationBuckets())
		if h.Count() < 7 { // 2 hand runs + 1 AllocsPerRun warm-up + 5 measured
			t.Errorf("lee phase histogram recorded %d observations, want >= 7", h.Count())
		}
	}
	t.Logf("%d expansions, %.0f allocs per flood (%.5f allocs/expansion)", perRun, allocs, allocs/float64(perRun))
}

// TestPickSideExhaustedNamesWalledSource covers the pickSide exhaustion
// path of the bidirectional search: when one wavefront cannot grow at
// all, the search must fail naming that wavefront's own source as the
// rip-up victim (hasBest is false, so victim falls back to sources[side])
// rather than some point on the healthy frontier.
func TestPickSideExhaustedNamesWalledSource(t *testing.T) {
	b := emptyBoard(t, 20, 20, 2)
	a := pinAt(t, b, geom.Pt(2, 2))
	c := pinAt(t, b, geom.Pt(15, 15))
	wallOff(t, b, c)
	opts := DefaultOptions()
	opts.Bidirectional = true
	r := mustRouter(t, b, []Connection{{A: a, B: c}}, opts)

	_, victim, ok := r.leePts(a, c, r.connID(0))
	if ok {
		t.Fatal("routed through a solid wall")
	}
	if victim != c {
		t.Errorf("rip-up victim = %v, want the walled source %v", victim, c)
	}
}
