// The mutation journal: every speculative burst of board mutations —
// placing a candidate route, ripping up victims, stretching a tuned
// connection through detour vias — runs inside a Tx that appends one
// typed record per applied mutation to an in-memory redo/undo log.
// Undoing the burst is then Tx.Rollback, which walks the log backwards
// applying exact inverses, instead of a hand-written inverse call per
// site; keeping it is Tx.Commit, which seals the log. With
// Board.VerifyRollbacks set (the router's Paranoid mode) a successful
// rollback is checked against a fingerprint taken at Begin whenever no
// other transaction committed in between, so "rollback restores a
// bit-identical board" is an enforced invariant rather than a
// convention wherever it is supposed to hold.
package board

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/layer"
)

// OpKind names one journaled mutation type.
type OpKind uint8

const (
	OpAddSegment OpKind = iota
	OpRemoveSegment
	OpPlaceVia
	OpRemoveVia
)

func (k OpKind) String() string {
	switch k {
	case OpAddSegment:
		return "AddSegment"
	case OpRemoveSegment:
		return "RemoveSegment"
	case OpPlaceVia:
		return "PlaceVia"
	case OpRemoveVia:
		return "RemoveVia"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Record describes one applied board mutation in board coordinates —
// enough to invert it, and enough for an observer (fault injection,
// tracing) to identify it. Layer/Ch/Span/Owner describe segment ops; At
// and Owner describe via ops.
type Record struct {
	Kind  OpKind
	Layer int
	Ch    int
	Span  geom.Interval
	Owner layer.ConnID
	At    geom.Point
}

func (r Record) String() string {
	switch r.Kind {
	case OpPlaceVia, OpRemoveVia:
		return fmt.Sprintf("%s %v owner %d", r.Kind, r.At, r.Owner)
	default:
		return fmt.Sprintf("%s layer %d ch %d %v owner %d", r.Kind, r.Layer, r.Ch, r.Span, r.Owner)
	}
}

// txEntry pairs a record with the live handles its inverse needs. The
// handles are refreshed whenever an undo or redo re-creates the metal.
type txEntry struct {
	rec Record
	seg *layer.Segment // segment ops
	via PlacedVia      // via ops
}

// Tx is one open transaction over a Board. Mutations made through it are
// applied to the board immediately (and are visible to every reader) and
// journaled; Rollback undoes them exactly, Commit makes them permanent.
// A Tx is single-threaded, like the Board it belongs to, and must end in
// exactly one Commit, Rollback or Adopt.
type Tx struct {
	b       *Board
	entries []txEntry
	done    bool

	fp     uint64 // board fingerprint at Begin, for VerifyRollbacks
	haveFP bool
	epoch  uint64 // b.commitEpoch at Begin; verification gate
}

// Begin opens a transaction. With VerifyRollbacks set on the board it
// snapshots the board fingerprint so Rollback can prove restoration.
func (b *Board) Begin() *Tx {
	tx := &Tx{b: b, epoch: b.commitEpoch}
	if b.VerifyRollbacks {
		tx.fp = b.Fingerprint()
		tx.haveFP = true
	}
	return tx
}

// OpenTxs returns the number of transactions that hold journaled,
// unresolved mutations. Checkpointing asserts it is zero before
// serializing the board, so a snapshot can never observe a half-applied
// transaction.
func (b *Board) OpenTxs() int { return b.openTxs }

// Len returns the number of journaled mutations.
func (tx *Tx) Len() int { return len(tx.entries) }

func (tx *Tx) append(e txEntry) {
	if tx.done {
		panic("board: mutation through a resolved Tx")
	}
	if len(tx.entries) == 0 {
		tx.b.openTxs++
	}
	tx.entries = append(tx.entries, e)
}

// AddSegment is Board.AddSegment journaled in tx.
func (tx *Tx) AddSegment(li, ch, lo, hi int, owner layer.ConnID) *layer.Segment {
	s := tx.b.AddSegment(li, ch, lo, hi, owner)
	if s != nil {
		tx.append(txEntry{
			rec: Record{Kind: OpAddSegment, Layer: li, Ch: ch, Span: geom.Iv(lo, hi), Owner: owner},
			seg: s,
		})
	}
	return s
}

// RemoveSegment is Board.RemoveSegment journaled in tx.
func (tx *Tx) RemoveSegment(li int, s *layer.Segment) {
	rec := Record{Kind: OpRemoveSegment, Layer: li, Ch: s.Channel(), Span: s.Interval(), Owner: s.Owner}
	tx.b.RemoveSegment(li, s)
	tx.append(txEntry{rec: rec, seg: s})
}

// PlaceVia is Board.PlaceVia journaled in tx.
func (tx *Tx) PlaceVia(p geom.Point, owner layer.ConnID) (PlacedVia, bool) {
	pv, ok := tx.b.PlaceVia(p, owner)
	if ok {
		tx.append(txEntry{rec: Record{Kind: OpPlaceVia, At: p, Owner: owner}, via: pv})
	}
	return pv, ok
}

// RemoveVia is Board.RemoveVia journaled in tx.
func (tx *Tx) RemoveVia(pv PlacedVia) {
	owner := layer.NoConn
	for _, s := range pv.Segs {
		if s != nil {
			owner = s.Owner
			break
		}
	}
	tx.b.RemoveVia(pv)
	tx.append(txEntry{rec: Record{Kind: OpRemoveVia, At: pv.At, Owner: owner}, via: pv})
}

// Adopt moves every journaled mutation of other into tx, after tx's own,
// and resolves other. Route assembly uses it when independently built
// legs merge into one placement that must commit or roll back as a unit.
func (tx *Tx) Adopt(other *Tx) {
	if other.done {
		panic("board: Adopt of a resolved Tx")
	}
	if other.b != tx.b {
		panic("board: Adopt across boards")
	}
	other.done = true
	if len(other.entries) == 0 {
		return
	}
	tx.b.openTxs--
	if tx.done {
		panic("board: Adopt into a resolved Tx")
	}
	if len(tx.entries) == 0 {
		tx.b.openTxs++
	}
	tx.entries = append(tx.entries, other.entries...)
	other.entries = nil
}

// Commit seals the transaction: the journaled mutations become
// permanent and the journal is discarded.
func (tx *Tx) Commit() {
	permanent := len(tx.entries) > 0
	tx.resolve()
	if permanent {
		tx.b.commitEpoch++
	}
}

func (tx *Tx) resolve() {
	if tx.done {
		panic("board: Tx resolved twice")
	}
	tx.done = true
	if len(tx.entries) > 0 {
		tx.b.openTxs--
	}
}

// ConflictError reports a Rollback that could not re-create removed
// metal because another connection has since taken the space. The board
// is left exactly as it was before the Rollback call (the partially
// undone prefix is redone), so the caller can respond — the router
// re-routes the connection — without any cleanup of its own. For the
// rip-up/put-back loop this is an expected outcome, not a bug.
type ConflictError struct {
	Rec Record // the journal record whose inverse was blocked
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("board: rollback conflict: space for %v is taken", e.Rec)
}

// InvariantError reports that a completed rollback failed verification:
// the board fingerprint after undoing every journaled mutation differs
// from the fingerprint at Begin. It is only produced with
// Board.VerifyRollbacks set.
type InvariantError struct {
	Before, After uint64
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("board: rollback did not restore the board: fingerprint %016x, want %016x", e.After, e.Before)
}

// Undo lists the metal a successful Rollback re-created while inverting
// removals, newest-removal-first (the order the undo walk runs in).
// Callers that track live segment handles — the router's put-back —
// rebuild their bookkeeping from it; rollbacks of pure placements
// return an empty Undo.
type Undo struct {
	Segs []UndoneSeg
	Vias []PlacedVia
}

// UndoneSeg is one segment re-added by Rollback.
type UndoneSeg struct {
	Layer int
	Seg   *layer.Segment
}

// Rollback undoes every journaled mutation in reverse order and resolves
// the transaction. Re-creating removed metal goes through the normal
// (interposable) mutation path, so a genuine collision — or an injected
// veto — surfaces as a *ConflictError with the board restored to its
// pre-Rollback state. With Board.VerifyRollbacks set, a successful
// rollback is additionally checked to restore the Begin-time fingerprint
// — but only when no other transaction committed since Begin (the
// rip-up/put-back loop rolls its rip transaction back after re-routed
// victims committed new metal, and the board then legally differs). A
// mismatch returns *InvariantError.
func (tx *Tx) Rollback() (Undo, error) {
	var undo Undo
	for i := len(tx.entries) - 1; i >= 0; i-- {
		e := &tx.entries[i]
		if !tx.undoEntry(e, &undo) {
			tx.redoFrom(i + 1)
			tx.resolve()
			// The journaled mutations stay applied, exactly as if the
			// transaction had committed.
			tx.b.commitEpoch++
			return Undo{}, &ConflictError{Rec: e.rec}
		}
	}
	tx.resolve()
	if tx.haveFP && tx.b.commitEpoch == tx.epoch {
		if after := tx.b.Fingerprint(); after != tx.fp {
			return Undo{}, &InvariantError{Before: tx.fp, After: after}
		}
	}
	return undo, nil
}

// undoEntry applies the inverse of one journal entry, refreshing the
// entry's live handles so a later redo can find the re-created metal.
func (tx *Tx) undoEntry(e *txEntry, undo *Undo) bool {
	switch e.rec.Kind {
	case OpAddSegment:
		tx.b.RemoveSegment(e.rec.Layer, e.seg)
		return true
	case OpRemoveSegment:
		s := tx.b.AddSegment(e.rec.Layer, e.rec.Ch, e.rec.Span.Lo, e.rec.Span.Hi, e.rec.Owner)
		if s == nil {
			return false
		}
		e.seg = s
		undo.Segs = append(undo.Segs, UndoneSeg{Layer: e.rec.Layer, Seg: s})
		return true
	case OpPlaceVia:
		tx.b.RemoveVia(e.via)
		return true
	case OpRemoveVia:
		pv, ok := tx.b.PlaceVia(e.rec.At, e.rec.Owner)
		if !ok {
			return false
		}
		e.via = pv
		undo.Vias = append(undo.Vias, pv)
		return true
	default:
		panic("board: unknown journal record")
	}
}

// redoFrom re-applies entries[from:] in original order after a failed
// undo, returning the board to its pre-Rollback state. The redo path
// only re-applies mutations whose space the interrupted undo freed
// moments ago, so it bypasses the interposer — a veto here could not be
// confused with a collision, only corrupt the recovery — and treats any
// failure as a broken invariant.
func (tx *Tx) redoFrom(from int) {
	for i := from; i < len(tx.entries); i++ {
		e := &tx.entries[i]
		switch e.rec.Kind {
		case OpAddSegment:
			s := tx.b.applySegment(e.rec.Layer, e.rec.Ch, e.rec.Span.Lo, e.rec.Span.Hi, e.rec.Owner)
			if s == nil {
				panic(fmt.Sprintf("board: rollback recovery could not redo %v", e.rec))
			}
			e.seg = s
		case OpRemoveSegment:
			tx.b.RemoveSegment(e.rec.Layer, e.seg)
		case OpPlaceVia:
			pv, ok := tx.b.placeViaQuiet(e.rec.At, e.rec.Owner)
			if !ok {
				panic(fmt.Sprintf("board: rollback recovery could not redo %v", e.rec))
			}
			e.via = pv
		case OpRemoveVia:
			tx.b.RemoveVia(e.via)
		}
	}
}
