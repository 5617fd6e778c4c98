package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/experiment"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/stringer"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Table 1 boards at full scale take from 12 s to over a minute a
// sweep, depending on the seed (nmc-4L and dpath turn into rip-up
// storms), so a run could not average over inputs; at Scale(2) a run
// still holds too few sweeps for a tail percentile. The workload routes
// them at Scale(3) instead, t1Sweeps seed-drawn sets of nine, and
// spot-checks full-scale output against the committed baseline. One
// operation is one sweep over a set, as `grr -table1` makes.
const (
	t1Scale  = 3
	t1Sweeps = 48
)

// baselineFingerprints are classic-engine fingerprints of full-scale
// Table 1 boards at their preset seeds, as recorded in
// BENCH_ca3981a.json; classic output has been bit-identical since. The
// three are the boards that route in under half a second.
var baselineFingerprints = map[string]string{
	"kdj11-4L": "99a006f5d7fb92f6", "nmc-6L": "578a2fa74242131a", "tna": "3e97d3ad9c9f26df",
}

// table1 routes Table 1 boards one at a time with the classic engine,
// on the path grr takes for -design: ReadDesign, prepare the board,
// String, core.New, RouteContext, verify.Routed, WriteRoutes.
type table1 struct {
	sweeps [][]t1Board // t1Sweeps sets of the nine boards, routed in turn
	setups []float64   // per sweep: set-up summed over the boards
}

type t1Board struct {
	name string
	brd  []byte
}

func newTable1(cfg config, rep *report) (bench, error) {
	specs := workload.Table1Specs()
	if err := checkBaseline(specs); err != nil {
		return nil, err
	}
	t := &table1{sweeps: make([][]t1Board, t1Sweeps)}
	err := parallel(t1Sweeps, func(k int) error {
		for _, spec := range specs {
			name := spec.Name
			if cfg.seed != 0 {
				spec.Seed = specSeed(cfg.seed, spec.Seed+int64(1000*k))
			}
			brd, err := designText(spec.Scale(t1Scale * cfg.scale))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			t.sweeps[k] = append(t.sweeps[k], t1Board{name: name, brd: brd})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.note("table1: %d sets of the 9 Table 1 boards at Scale(%d), classic engine, DefaultOptions, -jc 1", t1Sweeps, t1Scale*cfg.scale)
	return t, nil
}

// checkBaseline routes the baseline boards at full scale and compares
// their fingerprints with the committed ones.
func checkBaseline(specs []workload.Spec) error {
	for _, spec := range specs {
		want, ok := baselineFingerprints[spec.Name]
		if !ok {
			continue
		}
		run, err := experiment.RouteSpec(spec, core.DefaultOptions())
		if err != nil {
			return err
		}
		if got := fmt.Sprintf("%016x", run.Board.Fingerprint()); got != want {
			return fmt.Errorf("full-scale %s fingerprint %s, baseline %s", spec.Name, got, want)
		}
	}
	return nil
}

func (t *table1) setupSeconds() []float64 { return t.setups }

func (t *table1) close() {}

func (t *table1) pass(tr *tracer, budget time.Duration, rep *report) (*passResult, error) {
	p := &passResult{witness: map[string]string{}, layer: map[string]float64{}}
	opts := core.DefaultOptions()
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}
	var totalS float64
	var alloc uint64
	start := time.Now()
	sweeps := 0
	for ; sweeps == 0 || time.Since(start) < budget; sweeps++ {
		var setupS, routeS float64
		for _, bd := range t.sweeps[sweeps%len(t.sweeps)] {
			run := fmt.Sprintf("%s/%d", bd.name, sweeps%len(t.sweeps))
			s := t.routeBoard(tr, bd, run, opts, p, rep)
			setupS += s.setup
			routeS += s.route
			alloc += s.alloc
		}
		t.setups = append(t.setups, setupS)
		p.latMs = append(p.latMs, 1000*routeS)
		totalS += routeS
	}
	rep.note("table1: %d sweep(s)", sweeps)
	p.opsPerS = float64(sweeps) / totalS
	p.allocMB = float64(alloc) / float64(sweeps) / (1 << 20)

	// Per-layer figures are per sweep.
	p.ops = float64(sweeps)
	for k := range p.layer {
		p.layer[k] /= float64(sweeps)
	}
	if reg != nil {
		phases, err := scrapeRegistry(reg)
		if err != nil {
			return nil, err
		}
		for _, ph := range routerPhases {
			p.layer["core."+ph+"_s"] = phases[phaseSeries(ph)] / float64(sweeps)
		}
	}
	deriveCoreRatios(p.layer)
	return p, nil
}

// boardCost is what routing one board cost.
type boardCost struct {
	setup, route float64 // seconds
	alloc        uint64  // bytes, oracles excluded
}

// routeBoard takes one board from .brd text to .rte bytes, then runs
// the oracles on the result.
func (t *table1) routeBoard(tr *tracer, bd t1Board, run string, opts core.Options, p *passResult, rep *report) boardCost {
	rep.attempted++
	root := tr.begin("board", run, 0)
	defer tr.end(root)
	var (
		cost  boardCost
		d     *netlist.Design
		b     *board.Board
		conns []core.Connection
		r     *core.Router
		res   core.Result
		rte   bytes.Buffer
	)
	step := func(name string, sum *float64, f func() error) error {
		a0 := allocBytes()
		var err error
		sec := tr.timed(name, run, root, func() { err = f() }).Seconds()
		a := allocBytes() - a0
		cost.alloc += a
		*sum += sec
		p.layer[name+"_s"] += sec
		if name == "core.route" {
			p.layer["core.alloc_mb"] += float64(a) / (1 << 20)
		}
		return err
	}
	steps := []struct {
		name string
		sum  *float64
		f    func() error
	}{
		{"boardio.read_design", &cost.setup, func() (err error) { d, err = boardio.ReadDesign(bytes.NewReader(bd.brd)); return }},
		{"board.prepare", &cost.setup, func() (err error) { b, err = prepare(d); return }},
		{"stringer.string", &cost.setup, func() error {
			sr, err := stringer.String(d, stringer.Options{})
			if err == nil {
				conns = sr.Conns
			}
			return err
		}},
		{"core.new", &cost.setup, func() (err error) { r, err = core.New(b, conns, opts); return }},
		{"core.route", &cost.route, func() error {
			if res = r.RouteContext(context.Background()); res.Aborted != core.AbortNone {
				return fmt.Errorf("route aborted: %v", res.Aborted)
			}
			return nil
		}},
		{"verify.routed", &cost.route, func() error { return verify.Routed(b, r) }},
		{"boardio.write_routes", &cost.route, func() error { return boardio.WriteRoutes(&rte, r) }},
	}
	for _, s := range steps {
		if err := step(s.name, s.sum, s.f); err != nil {
			rep.fail("%s: %s: %v", run, s.name, err)
			return cost
		}
	}
	p.layer["core.route_s."+bd.name] += cost.route

	m := res.Metrics
	fp := fmt.Sprintf("%016x", b.Fingerprint())
	p.witness[run] = fp + fmt.Sprintf(" %+v", m)
	p.routed += m.Routed
	p.conns += m.Connections
	p.vias += m.ViasAdded
	p.wire += m.WireLength
	addCoreCounts(p.layer, m)
	p.layer["viamap.probes"] += float64(b.Vias.Probes)
	p.layer["viamap.updates"] += float64(b.Vias.Updates)
	p.layer["board.mutations"] += float64(b.Mutations())
	p.layer["layer.segments"] += float64(segments(b))
	p.layer["boardio.rte_bytes"] += float64(rte.Len())

	// Oracles, outside the timed path.
	var auditErr error
	var violations []drc.Violation
	p.layer["board.audit_s"] += tr.timed("board.audit", run, root, func() { auditErr = b.Audit() }).Seconds()
	p.layer["drc.check_s"] += tr.timed("drc.check", run, root, func() { violations = drc.Check(b, grid.DefaultProcess) }).Seconds()
	p.layer["drc.violations"] += float64(len(violations))
	switch {
	case auditErr != nil:
		rep.fail("%s: board audit: %v", run, auditErr)
	case len(violations) > 0:
		rep.fail("%s: %d DRC violations, first %v", run, len(violations), violations[0])
	}
	return cost
}

// addCoreCounts adds the router's counters to the per-layer figures.
func addCoreCounts(l map[string]float64, m core.Metrics) {
	l["core.lee_expansions"] += float64(m.LeeExpansions)
	l["core.lee_blocked"] += float64(m.LeeBlocked)
	l["core.rip_ups"] += float64(m.RipUps)
	l["core.put_backs"] += float64(m.PutBacks)
	l["core.rerouted"] += float64(m.ReRouted)
	l["core.passes"] += float64(m.Passes)
	l["core.fail_no_victims"] += float64(m.FailNoVictims)
	l["core.fail_rounds"] += float64(m.FailRounds)
	l["core.fail_node_budget"] += float64(m.FailNodeBudget)
	l["sla.trace_calls"] += float64(m.TraceCalls)
	l["sla.via_queries"] += float64(m.ViasCalls)
	l["core.optimal_conns"] += float64(m.ByMethod[core.Trivial] + m.ByMethod[core.ZeroVia] + m.ByMethod[core.OneVia] + m.ByMethod[core.PutBack])
	l["core.routed_conns"] += float64(m.Routed)
	l["core.lee_conns"] += float64(m.ByMethod[core.Lee])
}

// deriveCoreRatios turns the summed counts into the reported ratios and
// drops the helper sums.
func deriveCoreRatios(l map[string]float64) {
	l["core.optimal_share"] = l["core.optimal_conns"] / max(l["core.routed_conns"], 1)
	l["core.expansions_per_lee_conn"] = l["core.lee_expansions"] / max(l["core.lee_conns"], 1)
	l["viamap.probes_per_update"] = l["viamap.probes"] / max(l["viamap.updates"], 1)
	delete(l, "core.optimal_conns")
	delete(l, "core.routed_conns")
	delete(l, "core.lee_conns")
}

// routerPhases are the phase labels of core's
// grr_router_phase_seconds histogram.
var routerPhases = []string{"zero_via", "one_via", "lee", "put_back"}

// phaseSeries names the summed seconds of one router phase.
func phaseSeries(phase string) string {
	return `grr_router_phase_seconds_sum{phase="` + phase + `"}`
}

// scrapeRegistry reads every series of reg, as a /metrics scrape would.
func scrapeRegistry(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return nil, err
	}
	return obs.ParseExposition(&buf)
}
