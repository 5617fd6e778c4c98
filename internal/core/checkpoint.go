package core

import (
	"fmt"

	"repro/internal/board"
	"repro/internal/geom"
)

// This file implements the router's checkpoint/resume protocol. A
// Checkpoint is taken only at connection boundaries with no transaction
// open, so it describes a fully consistent board: the pins plus the
// metal of every committed route, nothing else. Together with the resume
// cursor (pass, position within the pass, previous pass's unrouted
// count) and the metrics — which the node-budget windows and Table 1
// reporting read — that is the router's complete state: the algorithm is
// deterministic and keeps no other history, so a resumed run finishes
// bit-identically to an uninterrupted one.
//
// Core deliberately does not serialize checkpoints; boardio's snapshot
// codec does, keeping this package free of I/O.

// Checkpoint is the router's complete routing progress at one connection
// boundary.
type Checkpoint struct {
	// Pass, NextPos, PrevUnrouted form the resume cursor: the outer-loop
	// pass, the position within r.order to route next, and the unrouted
	// count after the previous pass (the loop's progress test).
	Pass         int
	NextPos      int
	PrevUnrouted int
	Metrics      Metrics
	// Routes holds one entry per connection, in input order.
	Routes []ConnRoute
}

// ConnRoute is one connection's realization in board coordinates,
// free of live segment handles so it can be serialized.
type ConnRoute struct {
	Method Method
	Segs   []CheckpointSeg
	Vias   []geom.Point
}

// CheckpointSeg locates one trace segment.
type CheckpointSeg struct {
	Layer, Ch, Lo, Hi int
}

// maybeCheckpoint emits a checkpoint through Options.CheckpointSink
// after every CheckpointEvery-th routing attempt. nextPos is the r.order
// position the run would continue from.
func (r *Router) maybeCheckpoint(pass, nextPos, prevUnrouted int) {
	if r.Opts.CheckpointEvery <= 0 || r.Opts.CheckpointSink == nil {
		return
	}
	r.sinceCk++
	if r.sinceCk < r.Opts.CheckpointEvery {
		return
	}
	r.sinceCk = 0
	if n := r.B.OpenTxs(); n != 0 {
		r.invariantStop(fmt.Errorf("core: checkpoint at a connection boundary with %d open transaction(s)", n))
		return
	}
	if err := r.Opts.CheckpointSink(r.checkpoint(pass, nextPos, prevUnrouted)); err != nil {
		if r.invariant == nil {
			r.invariant = err
		}
		r.abortReason = AbortCheckpoint
	}
}

// emitFinalCheckpoint flushes one last checkpoint through the sink at
// the cursor where an abort stopped the run. Without it, a coarse
// CheckpointEvery could discard up to CheckpointEvery-1 attempts of
// committed work on every graceful drain; with it, a drained run resumes
// from exactly the connection it stopped at. It is a no-op when
// checkpointing is off or when the last attempt already checkpointed
// (sinceCk == 0): the abort cursor then matches the last emission up to
// skip-only iterations, which replay identically. A sink failure is
// recorded like any checkpoint failure, but cannot abort the (already
// stopped) run.
func (r *Router) emitFinalCheckpoint() {
	if r.Opts.CheckpointEvery <= 0 || r.Opts.CheckpointSink == nil || r.sinceCk == 0 {
		return
	}
	r.sinceCk = 0
	if n := r.B.OpenTxs(); n != 0 {
		r.invariantStop(fmt.Errorf("core: final checkpoint at abort with %d open transaction(s)", n))
		return
	}
	if err := r.Opts.CheckpointSink(r.checkpoint(r.ckPass, r.ckPos, r.ckPrev)); err != nil {
		if r.invariant == nil {
			r.invariant = err
		}
		r.abortReason = AbortCheckpoint
	}
}

// checkpoint captures the router's state. The caller guarantees no
// transaction is open.
func (r *Router) checkpoint(pass, nextPos, prevUnrouted int) *Checkpoint {
	cp := &Checkpoint{
		Pass:         pass,
		NextPos:      nextPos,
		PrevUnrouted: prevUnrouted,
		Metrics:      r.metrics,
		Routes:       make([]ConnRoute, len(r.routes)),
	}
	for i := range r.routes {
		rt := &r.routes[i]
		cr := ConnRoute{Method: rt.Method}
		for _, ps := range rt.Segs {
			cr.Segs = append(cr.Segs, CheckpointSeg{
				Layer: ps.Layer, Ch: ps.Seg.Channel(), Lo: ps.Seg.Lo, Hi: ps.Seg.Hi,
			})
		}
		for _, pv := range rt.Vias {
			cr.Vias = append(cr.Vias, pv.At)
		}
		cp.Routes[i] = cr
	}
	return cp
}

// Resume rebuilds a router mid-run from a checkpoint. The board must be
// in its pre-routing state (pins placed, no routes) — typically a fresh
// board rebuilt from the same design; Resume re-creates the checkpointed
// metal on it. The returned router's Route call continues from the
// checkpoint cursor and, because the algorithm is deterministic, ends in
// the same final board as the run that wrote the checkpoint.
func Resume(b *board.Board, conns []Connection, opts Options, cp *Checkpoint) (*Router, error) {
	r, err := New(b, conns, opts)
	if err != nil {
		return nil, err
	}
	if len(cp.Routes) != len(conns) {
		return nil, fmt.Errorf("core: checkpoint holds %d routes for %d connections", len(cp.Routes), len(conns))
	}
	if cp.Pass < 0 || cp.Pass >= r.Opts.MaxPasses || cp.NextPos < 0 || cp.NextPos > len(r.order) {
		return nil, fmt.Errorf("core: checkpoint cursor (pass %d, pos %d) out of range", cp.Pass, cp.NextPos)
	}
	bounds := b.Cfg.Bounds()
	for i, cr := range cp.Routes {
		if cr.Method > PutBack {
			return nil, fmt.Errorf("core: checkpoint connection %d: unknown method %d", i, cr.Method)
		}
		if cr.Method == NotRouted || cr.Method == Trivial {
			if len(cr.Segs) != 0 || len(cr.Vias) != 0 {
				return nil, fmt.Errorf("core: checkpoint connection %d: %s route carries metal", i, cr.Method)
			}
			r.routes[i] = Route{Method: cr.Method}
			continue
		}
		id := r.connID(i)
		var rt Route
		for _, v := range cr.Vias {
			if !v.In(bounds) {
				return nil, fmt.Errorf("core: checkpoint connection %d: via %v off board", i, v)
			}
			pv, ok := b.PlaceVia(v, id)
			if !ok {
				return nil, fmt.Errorf("core: checkpoint connection %d: via %v overlaps earlier metal", i, v)
			}
			rt.Vias = append(rt.Vias, pv)
		}
		for _, cs := range cr.Segs {
			if cs.Layer < 0 || cs.Layer >= b.NumLayers() {
				return nil, fmt.Errorf("core: checkpoint connection %d: layer %d out of range", i, cs.Layer)
			}
			l := b.Layers[cs.Layer]
			if cs.Ch < 0 || cs.Ch >= l.NumChannels() ||
				cs.Lo < 0 || cs.Hi >= l.ChannelLength() || cs.Lo > cs.Hi {
				return nil, fmt.Errorf("core: checkpoint connection %d: segment %+v out of range", i, cs)
			}
			s := b.AddSegment(cs.Layer, cs.Ch, cs.Lo, cs.Hi, id)
			if s == nil {
				return nil, fmt.Errorf("core: checkpoint connection %d: segment %+v overlaps earlier metal", i, cs)
			}
			rt.Segs = append(rt.Segs, PlacedSeg{Layer: cs.Layer, Seg: s})
		}
		rt.Method = cr.Method
		r.routes[i] = rt
	}
	r.metrics = cp.Metrics
	if r.obs != nil {
		// A resumed router publishes only this process's work: the
		// checkpointed counters become the already-flushed baseline
		// rather than being re-announced to the registry.
		r.obs.flushed = cp.Metrics
	}
	r.startPass = cp.Pass
	r.startPos = cp.NextPos
	r.resumePrev = cp.PrevUnrouted
	r.resumed = true
	return r, nil
}
