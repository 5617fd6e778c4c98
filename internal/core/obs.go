package core

import (
	"time"

	"repro/internal/obs"
)

// This file threads an obs.Registry through the router without touching
// the zero-allocation search loop. The design is delta-flush: the
// router keeps accumulating into its plain Metrics struct exactly as
// before (bit-identical Table 1 counters), and obsFlush — called at
// connection and pass boundaries, never inside a search — publishes the
// delta since the last flush to pre-resolved atomic registry handles.
// The only instrumentation inside a phase is a pair of clock reads
// around it; nothing allocates (TestLeeSteadyStateAllocs runs with the
// registry armed to pin this down), and nothing reads the clock into
// the algorithm, so routed output stays bit-identical.

// Phase indices for routerObs.phase. The ladder phases time each
// strategy attempt; put_back times re-insertion of rip-up victims.
const (
	phaseZeroVia = iota
	phaseOneVia
	phaseLee
	phasePutBack
	numPhases
)

var phaseLabel = [numPhases]string{"zero_via", "one_via", "lee", "put_back"}

// methodLabel maps Method to its metric label value. NotRouted has no
// series: it is never committed, so the gauge would sit at zero.
var methodLabel = [PutBack + 1]string{"", "trivial", "zero_via", "one_via", "lee", "put_back"}

// routerObs holds the registry handles for one Router, resolved once in
// New so the flush path is pure atomic arithmetic.
type routerObs struct {
	// flushed is the Metrics snapshot already published to the
	// registry; obsFlush publishes cur-flushed and advances it. Resume
	// resets it to the checkpoint's counters so a resumed run only
	// publishes work done in this process.
	flushed Metrics

	expansions  *obs.Counter
	blocked     *obs.Counter
	ripUps      *obs.Counter
	putBacks    *obs.Counter
	reRouted    *obs.Counter
	traceCalls  *obs.Counter
	viasCalls   *obs.Counter
	passes      *obs.Counter
	connections *obs.Counter
	routedConns *obs.Counter
	failedConns *obs.Counter
	fail        [3]*obs.Counter // no_victims, rounds, node_budget

	byMethod   [PutBack + 1]*obs.Gauge // index 0 (NotRouted) unused
	wireLength *obs.Gauge
	vias       *obs.Gauge

	phase     [numPhases]*obs.Histogram
	passTimes *obs.Histogram

	// Goal-engine lower-bound series (DESIGN §15), delta-flushed from
	// the lbIndex's plain counters so the search loop never touches an
	// atomic: builds, needsVia queries, and queries that proved a via
	// mandatory. flushedLB is the already-published baseline.
	lbBuilds  *obs.Counter
	lbQueries *obs.Counter
	lbHits    *obs.Counter
	flushedLB [3]int
}

// newRouterObs registers (or re-resolves — registration is idempotent,
// so routers routing many boards into one registry aggregate) every
// router series. The metric name catalog lives in DESIGN §10.
func newRouterObs(reg *obs.Registry) *routerObs {
	o := &routerObs{
		expansions:  reg.Counter("grr_router_lee_expansions_total"),
		blocked:     reg.Counter("grr_router_lee_blocked_total"),
		ripUps:      reg.Counter("grr_router_rip_ups_total"),
		putBacks:    reg.Counter("grr_router_put_backs_total"),
		reRouted:    reg.Counter("grr_router_rerouted_total"),
		traceCalls:  reg.Counter("grr_router_trace_calls_total"),
		viasCalls:   reg.Counter("grr_router_via_queries_total"),
		passes:      reg.Counter("grr_router_passes_total"),
		connections: reg.Counter("grr_router_connections_total"),
		routedConns: reg.Counter("grr_router_routed_total"),
		failedConns: reg.Counter("grr_router_failed_total"),
		wireLength:  reg.Gauge("grr_router_wire_length_cells"),
		vias:        reg.Gauge("grr_router_vias_placed"),
		passTimes:   reg.Histogram("grr_router_pass_seconds", obs.DurationBuckets()),

		lbBuilds:  reg.Counter("grr_lb_builds_total"),
		lbQueries: reg.Counter("grr_lb_queries_total"),
		lbHits:    reg.Counter("grr_lb_via_bound_hits_total"),
	}
	for i, cause := range [...]string{"no_victims", "rounds", "node_budget"} {
		o.fail[i] = reg.Counter(`grr_router_route_failures_total{cause="` + cause + `"}`)
	}
	for m := Trivial; m <= PutBack; m++ {
		o.byMethod[m] = reg.Gauge(`grr_router_routed_by_method{method="` + methodLabel[m] + `"}`)
	}
	for ph, name := range phaseLabel {
		o.phase[ph] = reg.Histogram(`grr_router_phase_seconds{phase="`+name+`"}`, obs.DurationBuckets())
	}
	return o
}

// obsFlush publishes the metrics accumulated since the last flush. It
// runs at connection/pass/run boundaries only and is a no-op without a
// registry.
func (r *Router) obsFlush() {
	o := r.obs
	if o == nil {
		return
	}
	cur, prev := r.metrics, o.flushed
	o.flushed = cur
	addC := func(c *obs.Counter, d int) {
		if d != 0 {
			c.Add(int64(d))
		}
	}
	addC(o.expansions, cur.LeeExpansions-prev.LeeExpansions)
	addC(o.blocked, cur.LeeBlocked-prev.LeeBlocked)
	addC(o.ripUps, cur.RipUps-prev.RipUps)
	addC(o.putBacks, cur.PutBacks-prev.PutBacks)
	addC(o.reRouted, cur.ReRouted-prev.ReRouted)
	addC(o.traceCalls, cur.TraceCalls-prev.TraceCalls)
	addC(o.viasCalls, cur.ViasCalls-prev.ViasCalls)
	addC(o.passes, cur.Passes-prev.Passes)
	addC(o.connections, cur.Connections-prev.Connections)
	addC(o.routedConns, cur.Routed-prev.Routed)
	addC(o.failedConns, cur.Failed-prev.Failed)
	addC(o.fail[0], cur.FailNoVictims-prev.FailNoVictims)
	addC(o.fail[1], cur.FailRounds-prev.FailRounds)
	addC(o.fail[2], cur.FailNodeBudget-prev.FailNodeBudget)
	// Realized-metal figures shrink when routes are ripped up or
	// unrealized, so they export as gauges, not counters.
	for m := Trivial; m <= PutBack; m++ {
		if d := cur.ByMethod[m] - prev.ByMethod[m]; d != 0 {
			o.byMethod[m].Add(int64(d))
		}
	}
	if d := cur.WireLength - prev.WireLength; d != 0 {
		o.wireLength.Add(int64(d))
	}
	if d := cur.ViasAdded - prev.ViasAdded; d != 0 {
		o.vias.Add(int64(d))
	}
	if r.lb != nil {
		addC(o.lbBuilds, r.lb.builds-o.flushedLB[0])
		addC(o.lbQueries, r.lb.queries-o.flushedLB[1])
		addC(o.lbHits, r.lb.hits-o.flushedLB[2])
		o.flushedLB = [3]int{r.lb.builds, r.lb.queries, r.lb.hits}
	}
}

// obsPhase records one phase duration; callers arrange for t0 to be
// read immediately before the phase body.
func (r *Router) obsPhase(ph int, t0 time.Time) {
	r.obs.phase[ph].Observe(time.Since(t0).Seconds())
}

// zeroViaT/oneViaT are the timed ladder entries routeOne and
// routeLadder call; without a registry they are direct calls. leePts
// (lee.go) is the equivalent wrapper for the Lee phase.
func (r *Router) zeroViaT(i int) (Route, bool) {
	if r.obs == nil {
		return r.zeroVia(i)
	}
	defer r.obsPhase(phaseZeroVia, time.Now())
	return r.zeroVia(i)
}

func (r *Router) oneViaT(i int) (Route, bool) {
	if r.obs == nil {
		return r.oneVia(i)
	}
	defer r.obsPhase(phaseOneVia, time.Now())
	return r.oneVia(i)
}
