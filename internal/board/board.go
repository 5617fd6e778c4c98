// Package board ties the per-layer channel structures and the via map
// together into one mutable routing surface. Every segment addition and
// removal flows through this package so the via map can never drift out
// of sync with the channels (Section 4: the map is "updated each time
// segments are added and deleted from a layer").
package board

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/layer"
	"repro/internal/viamap"
)

// Board is the mutable routing state for one printed circuit board.
type Board struct {
	Cfg    grid.Config
	Layers []*layer.Layer
	Vias   *viamap.Map

	// UseViaMap selects between the paper's via map (true, the default)
	// and direct per-layer probing (false) for via-availability checks.
	// The slow path exists only for the E-VMAP ablation.
	UseViaMap bool

	// OffGridHoles lists plated-through holes drilled off the via grid
	// (Section 11's off-grid pins extension). The via map cannot track
	// them — it is indexed by via coordinates — so the power-plane
	// generator consults this list separately.
	OffGridHoles []geom.Point

	// VerifyRollbacks makes a successful Tx.Rollback verify that the
	// board fingerprint returned to its Begin-time value. The check only
	// applies when no other transaction committed in between (see
	// commitEpoch) — a rip-up transaction held open across a successful
	// re-route legitimately rolls back onto a changed board. The router
	// sets it under Options.Paranoid; the cost is two Fingerprint passes
	// per verified rollback.
	VerifyRollbacks bool

	// interposer, when set, may veto mutations (see Interpose).
	interposer Interposer
	// observer, when set, is notified after every applied mutation.
	observer MutationObserver
	// hooks are further mutation listeners (AddMutateHook): the goal
	// engine's lower-bound index listens without displacing the
	// observer.
	hooks []func(Record)

	// seq counts applied mutations; openTxs counts transactions holding
	// unresolved journal entries (see OpenTxs); commitEpoch counts
	// transactions whose mutations became permanent, so a rollback can
	// tell whether the board may legally differ from its Begin-time state.
	seq         uint64
	openTxs     int
	commitEpoch uint64
}

// Interposer intercepts board mutations before they are applied. A
// vetoed AddSegment returns nil and a vetoed PlaceVia returns false —
// indistinguishable from a genuine collision, which is the point: the
// internal/faultinject package uses the seam to drive the router's
// rollback, put-back-denied and re-route paths on a deterministic
// schedule. Removals are never intercepted (they cannot fail), so a veto
// can never corrupt board state. Production boards leave it unset; the
// cost is one nil check per mutation.
type Interposer interface {
	AllowAddSegment(li, ch, lo, hi int, owner layer.ConnID) bool
	AllowPlaceVia(p geom.Point, owner layer.ConnID) bool
}

// MutationObserver is an optional extension of Interposer: an interposer
// that also implements it is notified after every applied mutation,
// including removals (which Interposer cannot veto). The crash-injection
// harness uses it to kill a run at exactly the Nth mutation.
type MutationObserver interface {
	ObserveMutation(rec Record)
}

// Interpose installs the mutation interposer; nil removes it. If the
// interposer also implements MutationObserver it is installed as the
// board's mutation observer.
func (b *Board) Interpose(i Interposer) {
	b.interposer = i
	b.observer, _ = i.(MutationObserver)
}

// Mutations returns the number of mutations applied to the board so far.
func (b *Board) Mutations() uint64 { return b.seq }

// mutated records one applied mutation and notifies the observers.
func (b *Board) mutated(rec Record) {
	b.seq++
	if b.observer != nil {
		b.observer.ObserveMutation(rec)
	}
	for _, h := range b.hooks {
		h(rec)
	}
}

// AddMutateHook registers f to be called after every applied mutation,
// alongside the mutation observer, for the rest of the board's life.
// Hooks may not mutate the board.
func (b *Board) AddMutateHook(f func(Record)) {
	b.hooks = append(b.hooks, f)
}

// New builds an empty board for the given configuration.
func New(cfg grid.Config) (*Board, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Board{
		Cfg:       cfg,
		Layers:    make([]*layer.Layer, len(cfg.Layers)),
		Vias:      viamap.New(cfg.ViaCols(), cfg.ViaRows()),
		UseViaMap: true,
	}
	for i, o := range cfg.Layers {
		b.Layers[i] = layer.NewLayer(o, i, cfg.ChannelCount(o), cfg.ChannelLength(o))
	}
	return b, nil
}

// MustNew is New for configurations known valid at compile time (tests,
// examples); it panics on error.
func MustNew(cfg grid.Config) *Board {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// NumLayers returns the number of signal layers.
func (b *Board) NumLayers() int { return len(b.Layers) }

// AddSegment places a segment on layer li covering [lo, hi] of channel ch
// and updates the via map for every via site the segment covers. It
// returns nil if the space is not free.
func (b *Board) AddSegment(li, ch, lo, hi int, owner layer.ConnID) *layer.Segment {
	if b.interposer != nil && !b.interposer.AllowAddSegment(li, ch, lo, hi, owner) {
		return nil
	}
	return b.applySegment(li, ch, lo, hi, owner)
}

// applySegment is AddSegment without the interposer veto — the internal
// mutation path, also used by rollback recovery (which must not be
// vetoed; see Tx.redoFrom).
func (b *Board) applySegment(li, ch, lo, hi int, owner layer.ConnID) *layer.Segment {
	s := b.Layers[li].Add(ch, lo, hi, owner)
	if s != nil {
		b.bumpVias(li, ch, lo, hi, +1)
		b.mutated(Record{Kind: OpAddSegment, Layer: li, Ch: ch, Span: geom.Iv(lo, hi), Owner: owner})
	}
	return s
}

// RemoveSegment removes a segment previously added to layer li and
// updates the via map.
func (b *Board) RemoveSegment(li int, s *layer.Segment) {
	ch, lo, hi := s.Channel(), s.Lo, s.Hi
	owner := s.Owner
	b.Layers[li].Remove(s)
	b.bumpVias(li, ch, lo, hi, -1)
	b.mutated(Record{Kind: OpRemoveSegment, Layer: li, Ch: ch, Span: geom.Iv(lo, hi), Owner: owner})
}

// bumpVias adjusts the via-map counts for every via site covered by the
// channel interval.
func (b *Board) bumpVias(li, ch, lo, hi, delta int) {
	pitch := b.Cfg.Pitch
	if ch%pitch != 0 {
		return // the whole channel misses the via grid
	}
	first := lo
	if r := first % pitch; r != 0 {
		first += pitch - r
	}
	orient := b.Layers[li].Orient
	for pos := first; pos <= hi; pos += pitch {
		v := b.Cfg.ViaOf(b.Cfg.PointAt(orient, ch, pos))
		if delta > 0 {
			b.Vias.Inc(v)
		} else {
			b.Vias.Dec(v)
		}
	}
}

// ViaFree reports whether a via may be drilled at grid point p (which
// must be a via site): no layer may have any metal there. With UseViaMap
// unset it probes every layer's channel structure instead, the behaviour
// the paper's via map was introduced to avoid.
func (b *Board) ViaFree(p geom.Point) bool {
	if b.UseViaMap {
		// Direct division rather than Cfg.ViaOf: this is the hottest
		// probe in the router and p is always a via site here.
		return b.Vias.Free(geom.Pt(p.X/b.Cfg.Pitch, p.Y/b.Cfg.Pitch))
	}
	for _, l := range b.Layers {
		ch, pos := b.Cfg.ChanPos(l.Orient, p)
		b.Vias.Probes++ // count slow probes too, for the E-VMAP ratio
		if !l.Chan(ch).Free(pos) {
			return false
		}
	}
	return true
}

// PlacedVia records the per-layer segments of one drilled via (or pin) so
// it can be removed again.
type PlacedVia struct {
	At   geom.Point // grid coordinates
	Segs []*layer.Segment
}

// PlaceVia drills a via at grid point p owned by owner: a unit segment on
// every signal layer, since a hole potentially connects all layers. It
// returns false without side effects if any layer is blocked at p.
func (b *Board) PlaceVia(p geom.Point, owner layer.ConnID) (PlacedVia, bool) {
	if b.interposer != nil && !b.interposer.AllowPlaceVia(p, owner) {
		return PlacedVia{}, false
	}
	return b.drillVia(p, owner, false)
}

// placeViaQuiet is PlaceVia without any interposer veto — the internal
// via path used by rollback recovery (see Tx.redoFrom).
func (b *Board) placeViaQuiet(p geom.Point, owner layer.ConnID) (PlacedVia, bool) {
	return b.drillVia(p, owner, true)
}

func (b *Board) drillVia(p geom.Point, owner layer.ConnID, quiet bool) (PlacedVia, bool) {
	pv := PlacedVia{At: p, Segs: make([]*layer.Segment, 0, len(b.Layers))}
	for li, l := range b.Layers {
		ch, pos := b.Cfg.ChanPos(l.Orient, p)
		var s *layer.Segment
		if quiet {
			s = b.applySegment(li, ch, pos, pos, owner)
		} else {
			s = b.AddSegment(li, ch, pos, pos, owner)
		}
		if s == nil {
			b.RemoveVia(pv)
			return PlacedVia{}, false
		}
		pv.Segs = append(pv.Segs, s)
	}
	return pv, true
}

// RemoveVia removes a previously placed via.
func (b *Board) RemoveVia(pv PlacedVia) {
	for li, s := range pv.Segs {
		if s != nil {
			b.RemoveSegment(li, s)
		}
	}
}

// PlacePin marks a component pin at grid point p: like a via (pins are
// plated through-holes contacting every layer) but owned by PinOwner so
// the router never rips it up. Pins must lie on the via grid (Section 11
// lists off-grid pins as a limitation of the original system; see
// PlacePinOffGrid for the extension lifting it).
func (b *Board) PlacePin(p geom.Point) error {
	if !b.Cfg.IsViaSite(p) {
		return fmt.Errorf("board: pin at %v is off the via grid (pitch %d)", p, b.Cfg.Pitch)
	}
	if _, ok := b.PlaceVia(p, layer.PinOwner); !ok {
		return fmt.Errorf("board: pin site %v already occupied", p)
	}
	return nil
}

// PlacePinOffGrid drills a plated-through pin at an arbitrary grid point
// — the extension Section 11 recommends ("this restriction can (and
// should) be removed by generalizing Trace to connect arbitrary grid
// points"). The hole contacts every layer like any pin; because it lies
// off the via grid it is recorded in OffGridHoles for the power planes.
func (b *Board) PlacePinOffGrid(p geom.Point) error {
	if b.Cfg.IsViaSite(p) {
		return b.PlacePin(p)
	}
	if _, ok := b.PlaceVia(p, layer.PinOwner); !ok {
		return fmt.Errorf("board: pin site %v already occupied", p)
	}
	b.OffGridHoles = append(b.OffGridHoles, p)
	return nil
}

// PlaceKeepout blocks every grid cell of rectangle r (inclusive, grid
// coordinates) on every signal layer with KeepoutOwner-owned segments —
// mounting holes, board cutouts, or a region blocked by a design edit.
// The rectangle is clipped to the board; a keepout colliding with
// existing metal (a pin, a routed trace) is an error, and the board is
// left with the partial keepout placed — callers treat it as a rejected
// design, not a recoverable state.
func (b *Board) PlaceKeepout(r geom.Rect) error {
	r = r.Intersect(b.Cfg.Bounds())
	if r.Empty() {
		return fmt.Errorf("board: keepout %v lies outside the board", r)
	}
	for li, l := range b.Layers {
		chans, pos := b.Cfg.ChanSpan(l.Orient, r)
		for ch := chans.Lo; ch <= chans.Hi; ch++ {
			if b.AddSegment(li, ch, pos.Lo, pos.Hi, layer.KeepoutOwner) == nil {
				return fmt.Errorf("board: keepout %v collides with existing metal on layer %d channel %d", r, li, ch)
			}
		}
	}
	return nil
}

// OwnerAt returns the owner of the metal at grid point p on layer li, or
// layer.NoConn if the point is free.
func (b *Board) OwnerAt(li int, p geom.Point) layer.ConnID {
	l := b.Layers[li]
	ch, pos := b.Cfg.ChanPos(l.Orient, p)
	if s := l.Chan(ch).SegmentAt(pos); s != nil {
		return s.Owner
	}
	return layer.NoConn
}

// FreeAt reports whether grid point p is free on layer li.
func (b *Board) FreeAt(li int, p geom.Point) bool {
	return b.OwnerAt(li, p) == layer.NoConn
}

// Fingerprint returns an FNV-64a hash of the complete board state:
// every segment on every layer (in canonical channel order), the
// off-grid hole list, and the via-map counts. Two boards with the same
// fingerprint hold bit-identical routing state; Tx rollback verification
// and the checkpoint/resume equivalence tests are built on it.
func (b *Board) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	for li, l := range b.Layers {
		mix(uint64(li))
		l.VisitSegments(func(ch int, s *layer.Segment) bool {
			mix(uint64(ch))
			mix(uint64(int64(s.Lo)))
			mix(uint64(int64(s.Hi)))
			mix(uint64(int64(s.Owner)))
			return true
		})
	}
	for _, p := range b.OffGridHoles {
		mix(uint64(int64(p.X)))
		mix(uint64(int64(p.Y)))
	}
	mix(b.Vias.Checksum())
	return h
}

// Audit cross-checks every layer's channel invariants and recomputes the
// via map from scratch, returning an error describing the first
// inconsistency. Integration tests call it after routing.
func (b *Board) Audit() error {
	if err := b.Vias.Invariant(); err != nil {
		return err
	}
	for _, l := range b.Layers {
		if err := l.Audit(); err != nil {
			return err
		}
	}
	want := viamap.New(b.Cfg.ViaCols(), b.Cfg.ViaRows())
	for _, l := range b.Layers {
		for ci := 0; ci < l.NumChannels(); ci++ {
			if ci%b.Cfg.Pitch != 0 {
				continue
			}
			l.Chan(ci).VisitUsed(geom.Iv(0, l.ChannelLength()-1), func(s *layer.Segment) bool {
				first := s.Lo
				if r := first % b.Cfg.Pitch; r != 0 {
					first += b.Cfg.Pitch - r
				}
				for pos := first; pos <= s.Hi; pos += b.Cfg.Pitch {
					want.Inc(b.Cfg.ViaOf(b.Cfg.PointAt(l.Orient, ci, pos)))
				}
				return true
			})
		}
	}
	for vy := 0; vy < b.Vias.Rows(); vy++ {
		for vx := 0; vx < b.Vias.Cols(); vx++ {
			v := geom.Pt(vx, vy)
			if want.Count(v) != b.Vias.Count(v) {
				return fmt.Errorf("board: via map drift at via %v: recorded %d, actual %d",
					v, b.Vias.Count(v), want.Count(v))
			}
		}
	}
	return nil
}
