package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/stringer"
	"repro/internal/verify"
	"repro/internal/workload"
)

// A run is a series of editing sessions, each ecoSessionLen chained
// edits from a base route, so the chain depth an edit sees does not
// depend on how fast the host is. Each of the ecoSessions sessions
// edits its own seed-drawn kdj11-4L, and the sessions advance in turn,
// one edit each, so any run weighs every design alike: their edits
// differ in cost by up to 2x. A session that finishes starts again
// from its base route.
const (
	ecoSessions   = 16
	ecoSessionLen = 4
)

// eco is a series of editing sessions on kdj11-4L with the goal engine:
// a base route, then a chained script of edits, each re-routed
// incrementally with Router.Reroute and checked against a from-scratch
// route of the edited design.
type eco struct {
	opts     core.Options
	sessions []ecoSession
	setups   []float64
}

// ecoSession is one design, its base route and its edit script.
type ecoSession struct {
	d      *netlist.Design
	base   *core.Router
	script []ecoStep
}

// ecoStep is one edit of the session and the keepouts the edited
// design has after it.
type ecoStep struct {
	kind     string
	edits    []core.Edit
	keepouts []geom.Rect
}

func newEco(cfg config, rep *report) (bench, error) {
	e := &eco{opts: core.DefaultOptions()}
	e.opts.Engine = core.EngineGoal
	e.opts.RecordRegions = true
	rng := rand.New(rand.NewSource(specSeed(cfg.seed, 7)))
	conns := 0
	for i := 0; i < ecoSessions; i++ {
		spec, _ := workload.Table1Spec("kdj11-4L")
		spec.Seed = specSeed(cfg.seed, spec.Seed+int64(1000*i))
		brd, err := designText(spec.Scale(cfg.scale))
		if err != nil {
			return nil, err
		}
		// Set-up is the user's wait before the first edit: read,
		// prepare, string and route the base design.
		start := time.Now()
		d, err := boardio.ReadDesign(bytes.NewReader(brd))
		if err != nil {
			return nil, err
		}
		b, err := prepare(d)
		if err != nil {
			return nil, err
		}
		sr, err := stringer.String(d, stringer.Options{})
		if err != nil {
			return nil, err
		}
		r, err := core.New(b, sr.Conns, e.opts)
		if err != nil {
			return nil, err
		}
		if res := r.RouteContext(context.Background()); res.Aborted != core.AbortNone {
			return nil, fmt.Errorf("base route aborted: %v", res.Aborted)
		}
		e.setups = append(e.setups, time.Since(start).Seconds())
		script, err := ecoScript(d, sr.Conns, rng)
		if err != nil {
			return nil, err
		}
		e.sessions = append(e.sessions, ecoSession{d: d, base: r, script: script})
		conns += len(sr.Conns)
	}
	rep.note("eco: %d kdj11-4L designs (%d connections each on average), goal engine, sessions of %d chained edits",
		ecoSessions, conns/ecoSessions, ecoSessionLen)
	return e, nil
}

// ecoScript draws one session's chained edit script: keepouts in pin-free areas,
// net removals, and re-additions of removed nets' connections under new
// net names. Every step is valid on the design the previous steps left.
func ecoScript(d *netlist.Design, conns []core.Connection, rng *rand.Rand) ([]ecoStep, error) {
	scratch, err := prepare(d)
	if err != nil {
		return nil, err
	}
	var nets []string
	byNet := map[string][]core.Connection{}
	for _, c := range conns {
		if c.A == c.B {
			continue
		}
		if byNet[c.Net] == nil {
			nets = append(nets, c.Net)
		}
		byNet[c.Net] = append(byNet[c.Net], c)
	}
	var removed []string
	var keepouts []geom.Rect
	bounds := scratch.Cfg.Bounds()
	var script []ecoStep
	for i := 0; len(script) < ecoSessionLen; i++ {
		if i > 100*ecoSessionLen {
			return nil, fmt.Errorf("eco: could not draw %d edits", ecoSessionLen)
		}
		var st ecoStep
		switch op := rng.Intn(3); {
		case op == 0:
			const w = 6
			x := bounds.MinX + rng.Intn(bounds.MaxX-bounds.MinX-w)
			y := bounds.MinY + rng.Intn(bounds.MaxY-bounds.MinY-w)
			r := geom.R(x, y, x+w-1, y+w-1)
			if !rectFree(scratch, r) {
				continue
			}
			if err := scratch.PlaceKeepout(r); err != nil {
				return nil, err
			}
			keepouts = append(keepouts, r)
			st = ecoStep{kind: "block", edits: []core.Edit{{Op: core.EditBlock, Rect: r}}}
		case op == 1 && len(nets) > 0:
			k := rng.Intn(len(nets))
			net := nets[k]
			nets = append(nets[:k], nets[k+1:]...)
			removed = append(removed, net)
			st = ecoStep{kind: "remove-net", edits: []core.Edit{{Op: core.EditRemoveNet, Net: net}}}
		case op == 2 && len(removed) > 0:
			k := rng.Intn(len(removed))
			net := removed[k]
			removed = append(removed[:k], removed[k+1:]...)
			st = ecoStep{kind: "add-conn"}
			for _, c := range byNet[net] {
				c.Net = fmt.Sprintf("%s_eco%d", net, len(script))
				st.edits = append(st.edits, core.Edit{Op: core.EditAddConn, Conn: c})
			}
		default:
			continue
		}
		st.keepouts = append([]geom.Rect(nil), keepouts...)
		script = append(script, st)
	}
	return script, nil
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

func (e *eco) setupSeconds() []float64 { return e.setups }

func (e *eco) close() {}

// editedBoard prepares the edited design's empty board.
func editedBoard(d *netlist.Design, st ecoStep) (*board.Board, error) {
	b, err := prepare(d)
	if err != nil {
		return nil, err
	}
	for _, r := range st.keepouts {
		if err := b.PlaceKeepout(r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (e *eco) pass(tr *tracer, budget time.Duration, rep *report) (*passResult, error) {
	p := &passResult{witness: map[string]string{}, layer: map[string]float64{}}
	var tweak func(*core.Options)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		tweak = func(o *core.Options) { o.Metrics = reg }
	}
	var editS, scratchS, alloc float64
	var adopted, rerouted int
	heads := make([]*core.Router, ecoSessions) // each session's latest router
	start := time.Now()
	n := 0
	for ; n == 0 || time.Since(start) < budget; n++ {
		session, step := n%ecoSessions, (n/ecoSessions)%ecoSessionLen
		ses := e.sessions[session]
		if step == 0 {
			heads[session] = ses.base
		}
		prev := heads[session]
		st := ses.script[step]
		run := fmt.Sprintf("edit/%d/%d", session, step)
		rep.attempted++
		root := tr.begin("edit", run, 0)
		var (
			b2  *board.Board
			r2  *core.Router
			res core.Result
			err error
		)
		a0 := allocBytes()
		t0 := time.Now()
		p.layer["board.prepare_edit_s"] += tr.timed("board.prepare_edit", run, root, func() { b2, err = editedBoard(ses.d, st) }).Seconds()
		if err == nil {
			p.layer["core.reroute_s"] += tr.timed("core.reroute", run, root, func() { r2, err = prev.Reroute(b2, st.edits, tweak) }).Seconds()
		}
		if err == nil {
			p.layer["core.route_s"] += tr.timed("core.route", run, root, func() { res = r2.RouteContext(context.Background()) }).Seconds()
			if res.Aborted != core.AbortNone {
				err = fmt.Errorf("route aborted: %v", res.Aborted)
			}
		}
		if err == nil {
			p.layer["verify.routed_s"] += tr.timed("verify.routed", run, root, func() { err = verify.Routed(b2, r2) }).Seconds()
		}
		lat := time.Since(t0)
		alloc += float64(allocBytes() - a0)
		tr.end(root)
		if err != nil {
			// The chain cannot continue from a broken edit.
			rep.fail("%s (%s): %v", run, st.kind, err)
			break
		}
		editS += lat.Seconds()
		p.latMs = append(p.latMs, 1000*lat.Seconds())

		// The oracle: the edited design routed from scratch, untimed.
		var want uint64
		scratchS += tr.timed("core.scratch_route", run, 0, func() {
			var bs *board.Board
			if bs, err = editedBoard(ses.d, st); err != nil {
				return
			}
			var rs *core.Router
			if rs, err = core.New(bs, core.EditConns(prev.Conns, st.edits), e.opts); err != nil {
				return
			}
			rs.Route()
			want = bs.Fingerprint()
		}).Seconds()
		got := b2.Fingerprint()
		switch auditErr := b2.Audit(); {
		case err != nil:
			rep.fail("%s: scratch route: %v", run, err)
		case auditErr != nil:
			rep.fail("%s: board audit: %v", run, auditErr)
		case got != want:
			rep.fail("%s (%s): incremental fingerprint %016x, from-scratch %016x", run, st.kind, got, want)
		}
		m := res.Metrics
		p.witness[run] = fmt.Sprintf("%016x %+v", got, m)
		triv := trivial(r2.Conns)
		p.routed += m.Routed - triv
		p.conns += m.Connections - triv
		p.vias += m.ViasAdded
		p.wire += m.WireLength
		a, r := r2.IncStats()
		adopted += a
		rerouted += r
		heads[session] = r2
	}
	if n == 0 {
		return nil, errors.New("eco: the first edit failed")
	}
	rep.note("eco: %d edit(s)", n)
	p.opsPerS = float64(n) / editS
	p.allocMB = alloc / float64(n) / (1 << 20)
	p.ops = float64(n)
	for k := range p.layer {
		p.layer[k] /= float64(n)
	}
	p.layer["core.scratch_route_s"] = scratchS / float64(n)
	p.layer["core.incremental_adopted"] = float64(adopted) / float64(n)
	p.layer["core.incremental_rerouted"] = float64(rerouted) / float64(n)
	p.layer["core.incremental_adopt_ratio"] = float64(adopted) / float64(max(adopted+rerouted, 1))
	p.layer["core.incremental_speedup"] = scratchS / (p.layer["core.reroute_s"] + p.layer["core.route_s"]) / float64(n)
	if reg != nil {
		s, err := scrapeRegistry(reg)
		if err != nil {
			return nil, err
		}
		p.layer["core.lb_builds"] = s["grr_lb_builds_total"] / float64(n)
		p.layer["core.lb_queries"] = s["grr_lb_queries_total"] / float64(n)
		p.layer["core.lb_via_bound_hits"] = s["grr_lb_via_bound_hits_total"] / float64(n)
		for _, ph := range routerPhases {
			p.layer["core."+ph+"_s"] = s[phaseSeries(ph)] / float64(n)
		}
	}
	return p, nil
}

// trivial counts the zero-length placeholders removed nets leave in a
// connection list; they are not connections a user asked for.
func trivial(conns []core.Connection) int {
	n := 0
	for _, c := range conns {
		if c.A == c.B {
			n++
		}
	}
	return n
}
