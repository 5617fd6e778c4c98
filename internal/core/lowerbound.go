package core

import (
	"repro/internal/board"
	"repro/internal/geom"
	"repro/internal/layer"
)

// This file is the goal-oriented engine's preprocessed lower-bound
// structure (DESIGN §15): per layer, per channel, how many cells are
// occupied — enough to answer, in O(layers) per query, whether a
// wavefront point can possibly reach the target in its current
// single-layer hop, or must provably spend at least one more via.
//
// The structure is congestion-aware and incrementally maintained: it is
// built lazily from a full board scan on first query and then kept
// exact by a board mutation hook (every AddSegment/RemoveSegment —
// including the per-layer unit segments of vias — flows through
// board.mutated). A mutation-counter cross-check rebuilds from scratch
// if the hook ever missed a revision, so a stale bound can never
// mis-order a search. All storage is allocated once; the steady-state
// query path allocates nothing (the PR 1 budget, TestLeeSteadyStateAllocs,
// runs a goal-engine subtest to pin this).

// lbLayer is the per-layer occupancy summary: used cell counts per
// channel plus a lazily refreshed prefix count of completely full
// channels, so "is any channel in [lo,hi] full?" is O(1).
type lbLayer struct {
	used   []int32 // per channel: occupied cell count
	pfx    []int32 // pfx[c+1] = number of full channels in [0, c]
	pfxOK  bool
	length int32 // cells per channel; used[c] == length ⇔ channel full
}

func (l *lbLayer) refreshPfx() {
	var n int32
	for c := range l.used {
		if l.used[c] == l.length {
			n++
		}
		l.pfx[c+1] = n
	}
	l.pfxOK = true
}

// fullIn reports whether any channel in [lo, hi] (clipped to the layer)
// is completely occupied.
func (l *lbLayer) fullIn(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi >= len(l.used) {
		hi = len(l.used) - 1
	}
	if lo > hi {
		return false
	}
	if !l.pfxOK {
		l.refreshPfx()
	}
	return l.pfx[hi+1] > l.pfx[lo]
}

// lbIndex is the board-wide lower-bound structure. One per router under
// EngineGoal; invalidation rides the board's mutation stream.
type lbIndex struct {
	b      *board.Board
	layers []lbLayer
	built  bool
	// seq mirrors b.Mutations() while the index is in sync; a mismatch
	// on query means some mutation bypassed the hook and forces a
	// rebuild.
	seq uint64

	// Counters behind the lower-bound metric series, flushed at obs boundaries.
	builds  int
	queries int
	hits    int
}

// newLBIndex attaches a lower-bound index to b. The hook stays for the
// board's lifetime, matching the router's.
func newLBIndex(b *board.Board) *lbIndex {
	x := &lbIndex{b: b}
	b.AddMutateHook(x.apply)
	return x
}

// apply folds one board mutation into the occupancy counts. Only
// segment records exist (vias are per-layer unit segments by the time
// they reach the mutation stream).
func (x *lbIndex) apply(rec board.Record) {
	x.seq++
	if !x.built {
		return
	}
	l := &x.layers[rec.Layer]
	n := int32(rec.Span.Hi - rec.Span.Lo + 1)
	wasFull := l.used[rec.Ch] == l.length
	if rec.Kind == board.OpAddSegment {
		l.used[rec.Ch] += n
	} else {
		l.used[rec.Ch] -= n
	}
	if (l.used[rec.Ch] == l.length) != wasFull {
		l.pfxOK = false
	}
}

// ensure makes the index current: first use builds it, and a mutation
// count the hook did not account for rebuilds it.
func (x *lbIndex) ensure() {
	if x.built && x.seq == x.b.Mutations() {
		return
	}
	x.build()
}

func (x *lbIndex) build() {
	b := x.b
	if x.layers == nil {
		x.layers = make([]lbLayer, len(b.Layers))
	}
	for li, l := range b.Layers {
		ll := &x.layers[li]
		ll.length = int32(l.ChannelLength())
		if ll.used == nil {
			ll.used = make([]int32, l.NumChannels())
			ll.pfx = make([]int32, l.NumChannels()+1)
		} else {
			clear(ll.used)
		}
		l.VisitSegments(func(ch int, s *layer.Segment) bool {
			ll.used[ch] += int32(s.Hi - s.Lo + 1)
			return true
		})
		ll.pfxOK = false
	}
	x.built = true
	x.seq = b.Mutations()
	x.builds++
}

// needsVia reports whether every remaining path from wavefront point n
// to target t must spend at least one more via than the hop it is on:
// true when, on every layer, a single-layer hop n→t is provably
// impossible. A hop on a layer needs (a) the cross-direction distance
// within the radius window the neighbor generator uses, and (b) a free
// interval in every channel between n's and t's (inclusive — the
// jogging trace must occupy a cell in each channel it crosses, and it
// crosses all of them). Both conditions are necessary, so a "true"
// answer is a sound lower bound; a "false" answer merely declines to
// strengthen the heuristic.
func (x *lbIndex) needsVia(n, t geom.Point, radius int) bool {
	x.ensure()
	x.queries++
	cfg := &x.b.Cfg
	reach := radius * cfg.Pitch
	for li := range x.layers {
		o := x.b.Layers[li].Orient
		nc, _ := cfg.ChanPos(o, n)
		tc, _ := cfg.ChanPos(o, t)
		d := nc - tc
		if d < 0 {
			d = -d
		}
		if d > reach {
			continue // off the layer's radius window: no hop here
		}
		lo, hi := nc, tc
		if lo > hi {
			lo, hi = hi, lo
		}
		if !x.layers[li].fullIn(lo, hi) {
			return false // a hop on this layer is not ruled out
		}
	}
	x.hits++
	return true
}

// goalViaPen is the goal engine's per-hop penalty, the unit in which
// the accumulated cost g() and the lower bound h() price vias. A few
// grid cells per via steers the flood along hop-frugal corridors
// without drowning the distance term.
func (r *Router) goalViaPen() int64 {
	return 4 * int64(r.B.Cfg.Pitch)
}
