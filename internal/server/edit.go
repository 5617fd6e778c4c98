package server

import (
	"errors"
	"fmt"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/geom"
)

// This file is grrd's design-edit path (DESIGN §15.2): POST
// /jobs/{id}/edit derives a NEW job from a finished one by applying an
// edit script (block / remove-net / add-conn) to its design and
// connection list. The derived job is admitted, journaled, routed from
// scratch and retried exactly like any submission — its snapshot IS
// the edited problem, so crash recovery and handoff need no knowledge
// of its ancestry.

// Edit-path sentinels; the HTTP layer maps them to 404 and 409.
var (
	ErrUnknownJob = errors.New("server: unknown job")
	ErrNotDone    = errors.New("server: job is not done")
)

// SubmitEdit admits a job derived from parentID by applying edits: the
// parent's design with block rectangles appended as keepouts, its
// connection list with removed nets trivialized and added connections
// appended, and its router options verbatim. The parent must be done.
// Admission — the posture gates, the deadline check and the admit
// edge — is Submit's.
func (s *Server) SubmitEdit(parentID string, edits []core.Edit, deadlineMs *int64) (Status, error) {
	if err := s.admissionClosed(); err != nil {
		return Status{}, err
	}
	if len(edits) == 0 {
		s.obs.rejectSpec.Inc()
		return Status{}, fmt.Errorf("server: edit: no edits")
	}
	budget, err := ValidateDeadline(deadlineMs)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}

	var parent Job
	s.mu.Lock()
	if j := s.jobs[parentID]; j != nil {
		parent = *j
	}
	s.mu.Unlock()
	if parent.snap == nil {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, parentID)
	}
	if parent.State != StateDone {
		return Status{}, fmt.Errorf("%w: %s is %s", ErrNotDone, parentID, parent.State)
	}

	snap, err := editSnapshot(parent.snap, edits)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}
	j := &Job{snap: snap}
	return s.admit(j, evEdit, budget, "parent", parentID, "edits", len(edits), "conns", len(snap.Conns))
}

// editSnapshot materializes the edited problem: the parent design plus
// block keepouts, the edited connection list, the parent's options, a
// zero-progress checkpoint. Validation is eager — a bad edit script is
// the client's mistake and earns a 400, not a failed job.
func editSnapshot(parent *boardio.Snapshot, edits []core.Edit) (*boardio.Snapshot, error) {
	d2 := *parent.Design
	d2.Keepouts = append([]geom.Rect(nil), parent.Design.Keepouts...)
	bounds := d2.GridConfig().Bounds()
	for i, e := range edits {
		switch e.Op {
		case core.EditBlock:
			if e.Rect.Empty() || !bounds.Contains(e.Rect) {
				return nil, fmt.Errorf("server: edit %d: block %v outside the %v routing grid", i, e.Rect, bounds)
			}
			d2.Keepouts = append(d2.Keepouts, e.Rect)
		case core.EditRemoveNet:
			if e.Net == "" {
				return nil, fmt.Errorf("server: edit %d: remove-net needs a net name", i)
			}
		case core.EditAddConn:
			if !e.Conn.A.In(bounds) || !e.Conn.B.In(bounds) {
				return nil, fmt.Errorf("server: edit %d: add-conn %v-%v outside the %v routing grid",
					i, e.Conn.A, e.Conn.B, bounds)
			}
		default:
			return nil, fmt.Errorf("server: edit %d: unknown op %d", i, e.Op)
		}
	}
	// Trial-place the edited board now: a block rectangle overlapping a
	// pin (or existing keepout) would otherwise fail every attempt of
	// the derived job.
	b, err := board.New(d2.GridConfig())
	if err != nil {
		return nil, fmt.Errorf("server: edit: %w", err)
	}
	if err := d2.PlacePins(b); err != nil {
		return nil, fmt.Errorf("server: edit: %w", err)
	}
	opts := parent.Opts
	opts.CheckpointSink = nil // runtime-only; workers re-attach
	conns2 := core.EditConns(parent.Conns, edits)
	return &boardio.Snapshot{
		Design: &d2,
		Conns:  conns2,
		Opts:   opts,
		Check:  freshCheckpoint(len(conns2)),
	}, nil
}
