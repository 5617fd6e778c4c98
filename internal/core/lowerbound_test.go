package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/layer"
)

// TestLBIndexMatchesFreshScan fuzzes the incremental maintenance of the
// lower-bound index against from-scratch rebuilds: after any random
// interleaving of segment adds and removes, the hook-maintained
// occupancy counts and every needsVia answer must match an index built
// by scanning the board fresh. The counts determine which channels are
// full, the only part of the index the bound reads. This is the
// property that lets a goal-engine search trust a bound that has lived
// through thousands of mutations.
func TestLBIndexMatchesFreshScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	b := emptyBoard(t, 20, 20, 2)
	x := newLBIndex(b)
	x.ensure()

	type placed struct {
		li int
		s  *layer.Segment
	}
	var segs []placed
	checks := 0
	for step := 0; step < 4000; step++ {
		if len(segs) == 0 || rng.Intn(3) != 0 {
			li := rng.Intn(b.NumLayers())
			nch := b.Layers[li].NumChannels()
			clen := b.Layers[li].ChannelLength()
			ch := rng.Intn(nch)
			lo := rng.Intn(clen)
			hi := lo + rng.Intn(clen-lo)
			if s := b.AddSegment(li, ch, lo, hi, layer.KeepoutOwner); s != nil {
				segs = append(segs, placed{li, s})
			}
		} else {
			i := rng.Intn(len(segs))
			b.RemoveSegment(segs[i].li, segs[i].s)
			segs[i] = segs[len(segs)-1]
			segs = segs[:len(segs)-1]
		}
		if step%89 != 0 {
			continue
		}
		checks++
		fresh := &lbIndex{b: b}
		fresh.build()
		x.ensure()
		for li := range x.layers {
			for c := range x.layers[li].used {
				if x.layers[li].used[c] != fresh.layers[li].used[c] {
					t.Fatalf("step %d: layer %d channel %d: incremental count %d, fresh scan %d",
						step, li, c, x.layers[li].used[c], fresh.layers[li].used[c])
				}
			}
		}
		bounds := b.Cfg.Bounds()
		for q := 0; q < 25; q++ {
			n := geom.Pt(bounds.MinX+rng.Intn(bounds.MaxX-bounds.MinX+1), bounds.MinY+rng.Intn(bounds.MaxY-bounds.MinY+1))
			tp := geom.Pt(bounds.MinX+rng.Intn(bounds.MaxX-bounds.MinX+1), bounds.MinY+rng.Intn(bounds.MaxY-bounds.MinY+1))
			radius := 1 + rng.Intn(3)
			if got, want := x.needsVia(n, tp, radius), fresh.needsVia(n, tp, radius); got != want {
				t.Fatalf("step %d: needsVia(%v, %v, %d) = %v incrementally, %v from a fresh scan",
					step, n, tp, radius, got, want)
			}
		}
	}
	if checks < 10 {
		t.Fatalf("only %d cross-checks ran; the fuzz loop is miswired", checks)
	}
}

// TestLBIndexRebuildsOnMissedMutation: the mutation-counter cross-check
// is the safety net that keeps a stale bound from ever mis-ordering a
// search — any revision the hook did not account for must force a full
// rebuild on the next query.
func TestLBIndexRebuildsOnMissedMutation(t *testing.T) {
	b := emptyBoard(t, 10, 10, 2)
	x := newLBIndex(b)
	x.ensure()
	builds := x.builds

	x.ensure()
	if x.builds != builds {
		t.Fatalf("in-sync ensure rebuilt the index (%d -> %d builds)", builds, x.builds)
	}

	// Simulate a mutation that bypassed the hook: the board's revision
	// counter and the index's disagree.
	x.seq--
	x.ensure()
	if x.builds != builds+1 {
		t.Fatalf("missed mutation did not force a rebuild (%d -> %d builds)", builds, x.builds)
	}
	if x.seq != b.Mutations() {
		t.Fatalf("rebuild left the index at revision %d, board at %d", x.seq, b.Mutations())
	}
}
