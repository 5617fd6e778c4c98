package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/board"
	"repro/internal/geom"
	"repro/internal/layer"
	"repro/internal/sla"
)

// Router routes a fixed list of connections on one board. Create it with
// New, then call Route once; the Router retains the realized routes for
// inspection, rendering and length tuning.
type Router struct {
	B     *board.Board
	Opts  Options
	Conns []Connection

	routes  []Route // indexed like Conns
	order   []int   // routing order (indices into Conns)
	ripped  map[int]*board.Tx
	search  *sla.Searcher
	metrics Metrics

	// scratch is the reusable Lee/one-via search state (scratch.go);
	// viaFree caches the B.ViaFree method value so the hot expansion
	// loop does not materialize a new closure per call.
	scratch searchScratch
	viaFree func(geom.Point) bool

	// obs carries the pre-resolved registry handles when
	// Options.Metrics is set, nil otherwise (obs.go). All observation
	// happens at connection/pass boundaries via obsFlush plus clock
	// reads around the ladder phases; the search loops never touch it.
	obs *routerObs

	// Abort state (see RouteContext). abortArmed is true only when a
	// time budget or a cancellable context is in play, so unbudgeted
	// runs skip even the cheap checks and stay bit-identical. The
	// cancelled flag is the only field another goroutine touches: the
	// context watcher RouteContext installs.
	abortArmed  bool
	deadline    time.Time
	cancelled   atomic.Bool
	abortReason AbortReason
	invariant   error

	// lb is the goal-oriented engine's preprocessed lower-bound index
	// (lowerbound.go), nil under EngineClassic.
	lb *lbIndex

	// Per-connection node-budget state: LeeExpansions at the start of
	// the connection being routed, and whether its budget ran out.
	connExpBase   int
	nodeBudgetHit bool

	// Checkpoint/resume state. sinceCk counts routing attempts since the
	// last checkpoint; the start* fields are the resume cursor installed
	// by Resume (zero for a fresh run); the ck* fields track the current
	// outer-loop cursor so an abort can flush one final checkpoint from
	// exactly where the run stopped (emitFinalCheckpoint).
	sinceCk    int
	startPass  int
	startPos   int
	resumePrev int
	resumed    bool
	ckPass     int
	ckPos      int
	ckPrev     int
}

// New builds a router for the given board and connections. The
// connections are copied; the board is mutated by Route.
func New(b *board.Board, conns []Connection, opts Options) (*Router, error) {
	if opts.Radius < 0 {
		return nil, fmt.Errorf("core: negative radius %d", opts.Radius)
	}
	if opts.Radius == 0 {
		opts.Radius = 1
	}
	if opts.MaxRipupRounds <= 0 {
		opts.MaxRipupRounds = DefaultOptions().MaxRipupRounds
	}
	if opts.RipupRadius <= 0 {
		opts.RipupRadius = DefaultOptions().RipupRadius
	}
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = DefaultOptions().MaxPasses
	}
	bounds := b.Cfg.Bounds()
	for i, c := range conns {
		if !c.A.In(bounds) || !c.B.In(bounds) {
			return nil, fmt.Errorf("core: connection %d endpoint off board: %v-%v", i, c.A, c.B)
		}
		if !opts.AllowOffGrid && (!b.Cfg.IsViaSite(c.A) || !b.Cfg.IsViaSite(c.B)) {
			return nil, fmt.Errorf("core: connection %d endpoint off via grid: %v-%v (set AllowOffGrid to permit)", i, c.A, c.B)
		}
	}
	if opts.Paranoid {
		b.VerifyRollbacks = true
	}
	r := &Router{
		B:     b,
		Opts:  opts,
		Conns: append([]Connection(nil), conns...),
	}
	r.routes = make([]Route, len(r.Conns))
	r.ripped = make(map[int]*board.Tx)
	r.search = sla.NewSearcher(b.Cfg)
	r.order = SortOrder(b, r.Conns, opts.Sort)
	r.scratch.init(b.Cfg)
	r.viaFree = b.ViaFree
	if opts.Engine == EngineGoal {
		r.lb = newLBIndex(b)
	}
	if opts.Metrics != nil {
		r.obs = newRouterObs(opts.Metrics)
	}
	return r, nil
}

// SortOrder returns the routing order for conns. With doSort set it
// applies the Section 6 keys — min(dx,dy) major, max(dx,dy) minor, both
// in via units — so the straightest, then shortest, connections come
// first; otherwise it returns input order.
func SortOrder(b *board.Board, conns []Connection, doSort bool) []int {
	order := make([]int, len(conns))
	for i := range order {
		order[i] = i
	}
	if !doSort {
		return order
	}
	type key struct{ straight, length int }
	keys := make([]key, len(conns))
	for i, c := range conns {
		dx, dy := b.Cfg.ViaDist(c.A, c.B)
		if dx > dy {
			dx, dy = dy, dx
		}
		keys[i] = key{dx, dy}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka.straight != kb.straight {
			return ka.straight < kb.straight
		}
		return ka.length < kb.length
	})
	return order
}

// RouteOf returns the realized route of connection i (as indexed in the
// input slice). The route is empty if the connection failed.
func (r *Router) RouteOf(i int) *Route { return &r.routes[i] }

// Metrics returns the counters accumulated so far.
func (r *Router) Metrics() Metrics { return r.metrics }

// Route runs the complete algorithm of Section 8.4 and returns the
// result. It may be called only once per Router.
func (r *Router) Route() Result { return r.RouteContext(context.Background()) }

// RouteContext is Route under a context: cancelling ctx (or exceeding
// Options.TimeBudget) stops routing at the next abort checkpoint.
// Checkpoints sit between connections and, inside a Lee search, on a
// coarse expansion stride, so an abort lands within milliseconds without
// taxing the zero-allocation hot loop. The board is always left
// consistent — any in-flight placement is rolled back and rip-up victims
// are put back — and the Result reports the reason in Aborted alongside
// the metrics of the partial run.
func (r *Router) RouteContext(ctx context.Context) Result {
	if d := r.Opts.TimeBudget; d > 0 {
		r.deadline = time.Now().Add(d)
		r.abortArmed = true
	}
	// A context deadline propagates into the same machinery as
	// Options.TimeBudget (whichever is sooner wins), so a caller-imposed
	// deadline — the grrd job daemon's per-job wall clock — reports
	// AbortTime rather than a bare cancellation.
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			if r.deadline.IsZero() || dl.Before(r.deadline) {
				r.deadline = dl
			}
			r.abortArmed = true
		}
	}
	if ctx != nil && ctx.Done() != nil {
		r.abortArmed = true
		if ctx.Err() != nil {
			// Already cancelled: don't race the watcher goroutine.
			r.cancelled.Store(true)
		} else {
			stop := context.AfterFunc(ctx, func() { r.cancelled.Store(true) })
			defer stop()
		}
	}
	return r.run()
}

// abortCheck latches and reports the abort decision. Cheap enough for
// per-connection use; the Lee inner loop additionally gates it on
// abortArmed and a stride so unbudgeted searches pay nothing.
func (r *Router) abortCheck() bool {
	if r.abortReason != AbortNone {
		return true
	}
	if !r.abortArmed {
		return false
	}
	// Deadline before cancellation: when a context deadline expires, its
	// Done channel fires too, and the more specific reason should win.
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		r.abortReason = AbortTime
		return true
	}
	if r.cancelled.Load() {
		r.abortReason = AbortCancelled
		return true
	}
	return false
}

// beginConnBudget opens a fresh node-budget window for one connection.
func (r *Router) beginConnBudget() {
	r.connExpBase = r.metrics.LeeExpansions
	r.nodeBudgetHit = false
}

// run is the Section 8.4 outer loop. A resumed router (see Resume)
// re-enters the loop at the checkpointed cursor — pass, position within
// the pass, and the previous pass's unrouted count — and from there
// behaves exactly like the uninterrupted run: the algorithm consumes no
// other history.
func (r *Router) run() Result {
	r.metrics.Connections = len(r.Conns)
	prevUnrouted := len(r.Conns) + 1
	startPos := 0
	if r.resumed {
		prevUnrouted = r.resumePrev
		startPos = r.startPos
	}
	r.ckPass, r.ckPos, r.ckPrev = r.startPass, startPos, prevUnrouted
passes:
	for pass := r.startPass; pass < r.Opts.MaxPasses; pass++ {
		var passT0 time.Time
		if r.obs != nil {
			passT0 = time.Now()
		}
		for pi := startPos; pi < len(r.order); pi++ {
			i := r.order[pi]
			r.ckPass, r.ckPos, r.ckPrev = pass, pi, prevUnrouted
			if r.abortCheck() {
				break passes
			}
			if r.routes[i].Method == NotRouted {
				r.routeOne(i)
				r.ckPos = pi + 1
				r.obsFlush()
				r.maybeCheckpoint(pass, pi+1, prevUnrouted)
				if r.abortReason != AbortNone {
					break passes
				}
			}
		}
		startPos = 0
		r.metrics.Passes++
		if r.obs != nil {
			r.obs.passTimes.Observe(time.Since(passT0).Seconds())
		}
		if !r.paranoidCheck(fmt.Sprintf("pass %d", pass)) {
			break
		}
		// Count what is actually unrouted at the end of the pass: rip-up
		// victims whose put-back failed are unrouted again even though
		// their own routeOne call succeeded earlier in the pass.
		unrouted := r.countUnrouted()
		if unrouted == 0 || unrouted >= prevUnrouted {
			// No progress: the problem is too hard; stop rather than rip
			// up connections indefinitely (Section 8.4).
			break
		}
		prevUnrouted = unrouted
	}
	return r.finish()
}

// countUnrouted returns the number of currently unrouted connections.
func (r *Router) countUnrouted() int {
	unrouted := 0
	for i := range r.routes {
		if r.routes[i].Method == NotRouted {
			unrouted++
		}
	}
	return unrouted
}

// finish is the tail of the outer loop: escalation, the final abort
// checkpoint, and result assembly.
func (r *Router) finish() Result {
	if r.Opts.Escalate && r.abortReason == AbortNone {
		unrouted := r.countUnrouted()
		// Escalation is for cracking a handful of local congestion
		// knots. A large residue means the problem is infeasible (the
		// kdj11 2-layer case); burning the stronger settings on it
		// would multiply the runtime without completing the board.
		if unrouted > 0 && unrouted <= max(20, len(r.Conns)/50) {
			r.escalate()
			r.paranoidCheck("escalation")
		}
	}

	// A budget or cancellation abort stops the run between checkpoints;
	// flush one final checkpoint at the abort cursor so a graceful drain
	// loses no committed work regardless of the checkpoint cadence.
	// Invariant and checkpoint aborts are excluded: the board is suspect
	// in the first case, the sink is the failure in the second.
	if r.abortReason == AbortTime || r.abortReason == AbortCancelled {
		r.emitFinalCheckpoint()
	}

	var res Result
	for i := range r.routes {
		if r.routes[i].Method == NotRouted {
			res.FailedConns = append(res.FailedConns, i)
		}
	}
	r.metrics.Routed = len(r.Conns) - len(res.FailedConns)
	r.metrics.Failed = len(res.FailedConns)
	r.obsFlush()
	res.Metrics = r.metrics
	res.Aborted = r.abortReason
	res.Invariant = r.invariant
	return res
}

// paranoidCheck, under Options.Paranoid, audits the board and
// cross-checks route ownership after the named phase. It reports false —
// recording the violation and aborting the run — on the first breach.
func (r *Router) paranoidCheck(phase string) bool {
	if !r.Opts.Paranoid {
		return true
	}
	if err := r.auditRoutes(phase); err != nil {
		r.abortReason = AbortInvariant
		r.invariant = err
		return false
	}
	return true
}

// auditRoutes is the paranoid invariant sweep: the board's own channel
// and via-map audit, then a check that every routed connection still owns
// the exact metal its Route records (segments stored and carrying the
// connection's ID, via segments likewise).
func (r *Router) auditRoutes(phase string) error {
	if err := r.B.Audit(); err != nil {
		return fmt.Errorf("core: paranoid audit after %s: %w", phase, err)
	}
	for i := range r.routes {
		rt := &r.routes[i]
		if rt.Method == NotRouted || rt.Method == Trivial {
			continue
		}
		id := r.connID(i)
		for _, ps := range rt.Segs {
			if !ps.Seg.Stored() {
				return fmt.Errorf("core: paranoid audit after %s: connection %d (%s): segment on layer %d removed behind the route's back",
					phase, i, rt.Method, ps.Layer)
			}
			if ps.Seg.Owner != id {
				return fmt.Errorf("core: paranoid audit after %s: connection %d (%s): segment on layer %d owned by %d, want %d",
					phase, i, rt.Method, ps.Layer, ps.Seg.Owner, id)
			}
		}
		for _, pv := range rt.Vias {
			for li, s := range pv.Segs {
				if s == nil {
					continue
				}
				if !s.Stored() || s.Owner != id {
					return fmt.Errorf("core: paranoid audit after %s: connection %d (%s): via %v layer %d no longer owned",
						phase, i, rt.Method, pv.At, li)
				}
			}
		}
	}
	return nil
}

// escalate retries the stragglers under progressively stronger, slower
// settings (see Options.Escalate). The option tweaks are restored before
// returning.
func (r *Router) escalate() {
	saved := r.Opts
	defer func() { r.Opts = saved }()
	r.Opts.CostCapFactor = 0
	r.Opts.MaxRipupRounds *= 2

	for stage := 1; stage <= 2; stage++ {
		r.Opts.Radius = saved.Radius + stage
		prev := len(r.Conns) + 1
		for pass := 0; pass < r.Opts.MaxPasses; pass++ {
			unrouted := 0
			for _, i := range r.order {
				if r.abortCheck() {
					return
				}
				if r.routes[i].Method == NotRouted {
					r.routeOne(i)
					r.obsFlush()
				}
			}
			for i := range r.routes {
				if r.routes[i].Method == NotRouted {
					unrouted++
				}
			}
			if unrouted == 0 {
				return
			}
			if unrouted >= prev {
				break
			}
			prev = unrouted
		}
	}
}

// routeOne tries the strategy ladder for connection i, ripping up
// obstacles between attempts, then puts ripped victims back. It reports
// whether the connection ended up routed.
func (r *Router) routeOne(i int) bool {
	c := &r.Conns[i]
	if c.A == c.B {
		r.routes[i] = Route{Method: Trivial}
		r.metrics.ByMethod[Trivial]++
		return true
	}
	r.beginConnBudget()

	var ripped []int
	defer func() { r.putBack(ripped) }()

	for round := 0; ; round++ {
		if rt, ok := r.zeroViaT(i); ok {
			r.commit(i, rt, ZeroVia)
			return true
		}
		if rt, ok := r.oneViaT(i); ok {
			r.commit(i, rt, OneVia)
			return true
		}
		rt, best, ok := r.lee(i)
		if ok {
			r.commit(i, rt, Lee)
			return true
		}
		// An aborted or budget-exhausted search failed for reasons no
		// rip-up can cure: give up on the connection (the deferred
		// putBack still restores this round's victims).
		if r.abortReason != AbortNone {
			return false
		}
		if r.nodeBudgetHit {
			r.metrics.FailNodeBudget++
			return false
		}
		if round >= r.Opts.MaxRipupRounds {
			r.metrics.FailRounds++
			return false
		}
		victims := r.selectVictims(best, i)
		if len(victims) == 0 {
			r.metrics.FailNoVictims++
			return false // nothing rippable is in the way
		}
		for _, v := range victims {
			r.ripUp(v)
			ripped = append(ripped, v)
		}
	}
}

// commit records a successful route, sealing its transaction.
func (r *Router) commit(i int, rt Route, m Method) {
	if rt.tx != nil {
		rt.tx.Commit()
		rt.tx = nil
	}
	rt.Method = m
	r.routes[i] = rt
	r.metrics.ByMethod[m]++
	for _, ps := range rt.Segs {
		r.metrics.WireLength += ps.Seg.Interval().Len()
	}
	r.metrics.ViasAdded += len(rt.Vias)
}

// connID maps a connection index to its segment-owner ID.
func (r *Router) connID(i int) layer.ConnID { return layer.ConnID(i + r.Opts.IDBase) }

// tx returns rt's open transaction, beginning it lazily on the first
// placement so routes that never touch the board never open one.
func (r *Router) tx(rt *Route) *board.Tx {
	if rt.tx == nil {
		rt.tx = r.B.Begin()
	}
	return rt.tx
}

// invariantStop aborts the run on a broken journal invariant, keeping
// the first error.
func (r *Router) invariantStop(err error) {
	if r.invariant == nil {
		r.invariant = err
	}
	r.abortReason = AbortInvariant
}

// materialize places the runs of one single-layer trace, appending the
// created segments to rt. On a collision it rolls the whole route back
// and reports failure; collisions here are rare (they require a via
// drilled mid-materialization to have split an interval that a pending
// junction needed) and the caller simply tries another strategy.
func (r *Router) materialize(rt *Route, li int, runs []sla.Run, id layer.ConnID) bool {
	for _, run := range runs {
		s := r.tx(rt).AddSegment(li, run.Chan, run.Span.Lo, run.Span.Hi, id)
		if s == nil {
			r.rollback(rt)
			return false
		}
		rt.Segs = append(rt.Segs, PlacedSeg{Layer: li, Seg: s})
	}
	return true
}

// rollback undoes everything rt has placed by rolling back its
// transaction. rt holds only placements, so the journal inverses are
// removals and cannot conflict; any error is a broken invariant
// (rollback-verification failure under Paranoid) and aborts the run.
func (r *Router) rollback(rt *Route) {
	if rt.tx != nil {
		if _, err := rt.tx.Rollback(); err != nil {
			r.invariantStop(err)
		}
		rt.tx = nil
	}
	rt.Segs, rt.Vias = nil, nil
}

// drill places a via for rt at p.
func (r *Router) drill(rt *Route, p geom.Point, id layer.ConnID) bool {
	pv, ok := r.tx(rt).PlaceVia(p, id)
	if !ok {
		return false
	}
	rt.Vias = append(rt.Vias, pv)
	return true
}

// absorb merges a completed leg placement — and its open transaction —
// into rt, so the combined route commits or rolls back as one unit.
func (r *Router) absorb(rt *Route, leg *Route) {
	rt.Segs = append(rt.Segs, leg.Segs...)
	rt.Vias = append(rt.Vias, leg.Vias...)
	if leg.tx != nil {
		if rt.tx == nil {
			rt.tx = leg.tx
		} else {
			rt.tx.Adopt(leg.tx)
		}
		leg.tx = nil
	}
}

// unrealize removes connection i's realization from the board through a
// fresh transaction, adjusting the metrics. Rolling the returned
// transaction back re-creates the realization exactly (restore);
// committing it makes the removal permanent.
func (r *Router) unrealize(i int) *board.Tx {
	old := r.routes[i]
	tx := r.B.Begin()
	for _, ps := range old.Segs {
		r.metrics.WireLength -= ps.Seg.Interval().Len()
		tx.RemoveSegment(ps.Layer, ps.Seg)
	}
	for _, pv := range old.Vias {
		tx.RemoveVia(pv)
	}
	r.metrics.ViasAdded -= len(old.Vias)
	r.metrics.ByMethod[old.Method]--
	r.routes[i] = Route{Method: NotRouted}
	return tx
}

// restore re-creates connection i's unrealized route by rolling back its
// rip transaction. It reports failure if any of the space has been taken
// (the board is then back in the ripped state); a journal invariant
// breach additionally aborts the run, which the caller must check.
func (r *Router) restore(i int, tx *board.Tx, method Method) bool {
	undo, err := tx.Rollback()
	if err != nil {
		var ce *board.ConflictError
		if errors.As(err, &ce) {
			return false
		}
		r.invariantStop(err)
		return false
	}
	// The undo lists run newest-removal-first; reverse them so the
	// rebuilt Route carries its metal in the original placement order.
	var rt Route
	for k := len(undo.Vias) - 1; k >= 0; k-- {
		rt.Vias = append(rt.Vias, undo.Vias[k])
	}
	for k := len(undo.Segs) - 1; k >= 0; k-- {
		rt.Segs = append(rt.Segs, PlacedSeg{Layer: undo.Segs[k].Layer, Seg: undo.Segs[k].Seg})
	}
	r.commit(i, rt, method)
	return true
}

// ripUp removes connection v's realization from the board, retaining the
// open rip transaction so putBack can re-insert it cheaply (Section 8.3)
// by rolling it back.
func (r *Router) ripUp(v int) {
	tx := r.unrealize(v)
	r.metrics.RipUps++
	r.ripped[v] = tx
}

// putBack attempts to re-insert each ripped victim exactly where it was.
// Victims whose space was taken by the new connection stay unrouted and
// are re-routed by the pass loop (Section 8.3: "The remaining few must be
// marked for re-routing in the connection list").
func (r *Router) putBack(victims []int) {
	if r.obs != nil && len(victims) > 0 {
		defer r.obsPhase(phasePutBack, time.Now())
	}
	for _, v := range victims {
		tx, ok := r.ripped[v]
		if !ok {
			continue
		}
		delete(r.ripped, v)
		if r.routes[v].Method != NotRouted {
			// The victim was re-routed in the meantime; its old metal
			// must stay off the board.
			tx.Commit()
			continue
		}
		if r.restore(v, tx, PutBack) {
			r.metrics.PutBacks++
			continue
		}
		if r.abortReason == AbortInvariant {
			return
		}
		r.metrics.ReRouted++
		// The new connection took some of the victim's old space. Try a
		// fresh route immediately — without rip-up rights, so victims
		// cannot cascade — before leaving it for the next pass.
		r.routeLadder(v)
	}
}

// routeLadder runs the zero-via/one-via/Lee ladder once for connection i
// with no rip-up. It is used for re-routing put-back casualties.
func (r *Router) routeLadder(i int) bool {
	if r.abortCheck() {
		// Leave the victim for FailedConns rather than burn post-abort
		// time on a fresh search; the board stays consistent either way.
		return false
	}
	r.beginConnBudget()
	if rt, ok := r.zeroViaT(i); ok {
		r.commit(i, rt, ZeroVia)
		return true
	}
	if rt, ok := r.oneViaT(i); ok {
		r.commit(i, rt, OneVia)
		return true
	}
	if rt, _, ok := r.lee(i); ok {
		r.commit(i, rt, Lee)
		return true
	}
	return false
}

// selectVictims runs Obstructions on every layer around the best
// wavefront point of the failed Lee search (Section 8.3) and returns the
// rippable connections found, excluding the one being routed.
func (r *Router) selectVictims(best geom.Point, self int) []int {
	pitch := r.B.Cfg.Pitch
	box := geom.Bounding(best, best).Expand(r.Opts.RipupRadius * pitch).Intersect(r.B.Cfg.Bounds())
	seen := make(map[layer.ConnID]struct{})
	var victims []int
	for _, l := range r.B.Layers {
		for _, id := range r.search.Obstructions(l, best, box) {
			v := int(id) - r.Opts.IDBase
			if v == self || v < 0 || v >= len(r.Conns) {
				// Foreign metal (another routing pass) is never a victim.
				continue
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			victims = append(victims, v)
		}
	}
	sort.Ints(victims) // deterministic rip order
	return victims
}
