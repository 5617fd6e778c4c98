package board

import (
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/layer"
)

// txDenier vetoes segment adds matching a predicate; used to force
// rollback conflicts on the undo path.
type txDenier struct {
	denySeg func(li, ch, lo, hi int, owner layer.ConnID) bool
	denyVia func(p geom.Point, owner layer.ConnID) bool
}

func (d *txDenier) AllowAddSegment(li, ch, lo, hi int, owner layer.ConnID) bool {
	return d.denySeg == nil || !d.denySeg(li, ch, lo, hi, owner)
}

func (d *txDenier) AllowPlaceVia(p geom.Point, owner layer.ConnID) bool {
	return d.denyVia == nil || !d.denyVia(p, owner)
}

func TestTxRollbackRestoresFingerprint(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	b.VerifyRollbacks = true
	if b.AddSegment(0, 1, 0, 8, 7) == nil {
		t.Fatal("setup add failed")
	}
	base := b.Fingerprint()

	tx := b.Begin()
	if tx.AddSegment(0, 3, 0, 11, 9) == nil {
		t.Fatal("tx add failed")
	}
	if _, ok := tx.PlaceVia(geom.Pt(6, 6), 9); !ok {
		t.Fatal("tx via failed")
	}
	if tx.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tx.Len())
	}
	if b.OpenTxs() != 1 {
		t.Fatalf("OpenTxs = %d, want 1", b.OpenTxs())
	}
	if b.Fingerprint() == base {
		t.Fatal("mutations did not change the fingerprint")
	}
	undo, err := tx.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if len(undo.Segs) != 0 || len(undo.Vias) != 0 {
		t.Errorf("rollback of pure placements returned undo %+v", undo)
	}
	if b.Fingerprint() != base {
		t.Error("rollback did not restore the board")
	}
	if b.OpenTxs() != 0 {
		t.Errorf("OpenTxs = %d after rollback", b.OpenTxs())
	}
	if err := b.Audit(); err != nil {
		t.Errorf("Audit after rollback: %v", err)
	}
}

func TestTxRollbackRestoresRemovals(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	b.VerifyRollbacks = true
	s := b.AddSegment(0, 3, 0, 11, 7)
	pv, ok := b.PlaceVia(geom.Pt(6, 6), 7)
	if s == nil || !ok {
		t.Fatal("setup failed")
	}
	base := b.Fingerprint()

	tx := b.Begin()
	tx.RemoveVia(pv)
	tx.RemoveSegment(0, s)
	if !b.FreeAt(0, geom.Pt(3, 5)) {
		t.Fatal("removal did not free the space")
	}
	undo, err := tx.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if b.Fingerprint() != base {
		t.Error("rollback did not restore removed metal")
	}
	// Undo lists re-created metal newest-removal-first: the segment
	// (removed last, undone first), then the via.
	if len(undo.Segs) != 1 || len(undo.Vias) != 1 {
		t.Fatalf("undo = %d segs, %d vias; want 1, 1", len(undo.Segs), len(undo.Vias))
	}
	if undo.Segs[0].Seg.Owner != 7 || undo.Segs[0].Layer != 0 {
		t.Errorf("undone segment = %+v", undo.Segs[0])
	}
	if undo.Vias[0].At != geom.Pt(6, 6) {
		t.Errorf("undone via at %v", undo.Vias[0].At)
	}
	if err := b.Audit(); err != nil {
		t.Errorf("Audit after rollback: %v", err)
	}
}

// TestTxRollbackVerifySkipsInterleavedCommit models the rip-up/put-back
// shape: a rip transaction stays open while another transaction commits
// new metal, then rolls back. The board legally differs from the rip's
// Begin-time state, so verification must not fire.
func TestTxRollbackVerifySkipsInterleavedCommit(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	b.VerifyRollbacks = true
	victim := b.AddSegment(0, 1, 0, 8, 7)
	if victim == nil {
		t.Fatal("setup failed")
	}

	rip := b.Begin()
	rip.RemoveSegment(0, victim)

	other := b.Begin()
	if other.AddSegment(0, 3, 0, 8, 9) == nil {
		t.Fatal("interleaved add failed")
	}
	other.Commit()

	undo, err := rip.Rollback()
	if err != nil {
		t.Fatalf("put-back rollback after interleaved commit: %v", err)
	}
	if len(undo.Segs) != 1 {
		t.Fatalf("undo = %d segs, want 1", len(undo.Segs))
	}
	if b.FreeAt(0, geom.Pt(1, 5)) || b.FreeAt(0, geom.Pt(3, 5)) {
		t.Error("board lost metal: victim and interleaved route must both exist")
	}
	if err := b.Audit(); err != nil {
		t.Errorf("Audit after put-back: %v", err)
	}
}

// TestTxRollbackVerifyCatchesUnjournaledMutation: a mutation made behind
// the journal's back (no transaction committed it) survives the rollback
// and must trip the fingerprint check.
func TestTxRollbackVerifyCatchesUnjournaledMutation(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	b.VerifyRollbacks = true
	tx := b.Begin()
	if tx.AddSegment(0, 1, 0, 8, 7) == nil {
		t.Fatal("tx add failed")
	}
	if b.AddSegment(0, 3, 0, 8, 9) == nil { // unjournaled, uncommitted
		t.Fatal("direct add failed")
	}
	_, err := tx.Rollback()
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("Rollback error = %v, want *InvariantError", err)
	}
}

// TestTxRollbackConflict: when another connection occupies the freed
// space before rollback, Rollback must report ConflictError and leave the
// board exactly as it was just before the Rollback call.
func TestTxRollbackConflict(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	s := b.AddSegment(0, 1, 0, 8, 7)
	if s == nil {
		t.Fatal("setup failed")
	}
	tx := b.Begin()
	tx.AddSegment(1, 0, 0, 8, 7) // will be undone before the conflict
	tx.RemoveSegment(0, s)
	// Another connection takes part of the freed channel.
	if b.AddSegment(0, 1, 2, 4, 8) == nil {
		t.Fatal("intruder add failed")
	}
	pre := b.Fingerprint()
	_, err := tx.Rollback()
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("Rollback = %v, want *ConflictError", err)
	}
	if ce.Rec.Kind != OpRemoveSegment {
		t.Errorf("conflict record = %v", ce.Rec)
	}
	if b.Fingerprint() != pre {
		t.Error("failed rollback did not restore the pre-Rollback board")
	}
	if b.OpenTxs() != 0 {
		t.Errorf("OpenTxs = %d after failed rollback", b.OpenTxs())
	}
	if err := b.Audit(); err != nil {
		t.Errorf("Audit after failed rollback: %v", err)
	}
}

// TestTxRollbackVetoedUndo: an interposer veto on the undo path is
// reported as a conflict (indistinguishable from a collision, as with
// every vetoed mutation), with recovery bypassing the veto.
func TestTxRollbackVetoedUndo(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	s := b.AddSegment(0, 1, 0, 8, 7)
	if s == nil {
		t.Fatal("setup failed")
	}
	tx := b.Begin()
	tx.AddSegment(1, 0, 0, 8, 7)
	tx.RemoveSegment(0, s)
	pre := b.Fingerprint()
	den := &txDenier{denySeg: func(li, ch, lo, hi int, owner layer.ConnID) bool {
		return li == 0 // block re-adding the removed segment
	}}
	b.Interpose(den)
	_, err := tx.Rollback()
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("Rollback = %v, want *ConflictError", err)
	}
	b.Interpose(nil)
	if b.Fingerprint() != pre {
		t.Error("recovery redo did not restore the pre-Rollback board (veto must not block redo)")
	}
}

func TestTxCommitKeepsMutations(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	tx := b.Begin()
	if tx.AddSegment(0, 1, 0, 8, 7) == nil {
		t.Fatal("tx add failed")
	}
	tx.Commit()
	if b.OpenTxs() != 0 {
		t.Errorf("OpenTxs = %d after commit", b.OpenTxs())
	}
	if b.FreeAt(0, geom.Pt(1, 4)) {
		t.Error("committed segment missing")
	}
	defer func() {
		if recover() == nil {
			t.Error("mutation through a committed Tx did not panic")
		}
	}()
	tx.AddSegment(0, 3, 0, 8, 7)
}

func TestTxEmptyDoesNotCountAsOpen(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	tx := b.Begin()
	// A vetoed/blocked mutation journals nothing.
	b.AddSegment(0, 1, 0, 8, 7)
	if tx.AddSegment(0, 1, 2, 4, 8) != nil {
		t.Fatal("overlapping add succeeded")
	}
	if b.OpenTxs() != 0 {
		t.Errorf("OpenTxs = %d for an empty tx", b.OpenTxs())
	}
	if _, err := tx.Rollback(); err != nil {
		t.Errorf("empty rollback: %v", err)
	}
}

func TestTxAdopt(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	base := b.Fingerprint()
	main := b.Begin()
	if main.AddSegment(0, 1, 0, 4, 7) == nil {
		t.Fatal("main add failed")
	}
	leg := b.Begin()
	if leg.AddSegment(1, 0, 0, 4, 7) == nil {
		t.Fatal("leg add failed")
	}
	if b.OpenTxs() != 2 {
		t.Fatalf("OpenTxs = %d, want 2", b.OpenTxs())
	}
	main.Adopt(leg)
	if b.OpenTxs() != 1 {
		t.Fatalf("OpenTxs = %d after Adopt, want 1", b.OpenTxs())
	}
	if main.Len() != 2 {
		t.Fatalf("Len = %d after Adopt, want 2", main.Len())
	}
	if _, err := main.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if b.Fingerprint() != base {
		t.Error("rollback after Adopt did not undo the adopted leg")
	}
}

func TestMutationObserverSeesRemovals(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	var seen []Record
	b.Interpose(recorder{&seen})
	s := b.AddSegment(0, 1, 0, 8, 7)
	b.RemoveSegment(0, s)
	if b.Mutations() != 2 {
		t.Errorf("Mutations = %d, want 2", b.Mutations())
	}
	if len(seen) != 2 || seen[0].Kind != OpAddSegment || seen[1].Kind != OpRemoveSegment {
		t.Errorf("observed %v", seen)
	}
	if seen[1].Owner != 7 || seen[1].Span != geom.Iv(0, 8) {
		t.Errorf("removal record = %+v", seen[1])
	}
}

type recorder struct{ out *[]Record }

func (recorder) AllowAddSegment(li, ch, lo, hi int, owner layer.ConnID) bool { return true }
func (recorder) AllowPlaceVia(p geom.Point, owner layer.ConnID) bool         { return true }
func (r recorder) ObserveMutation(rec Record)                                { *r.out = append(*r.out, rec) }

func TestAuditSurfacesViaMapInvariant(t *testing.T) {
	b := testBoard(t, 5, 5, 2)
	b.Vias.Dec(geom.Pt(0, 0)) // underflow
	if err := b.Audit(); err == nil {
		t.Error("Audit ignored a via-map underflow")
	}
}
